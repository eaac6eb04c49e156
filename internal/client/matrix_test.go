package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// cut is how a fake daemon breaks the transport instead of answering.
type cutKind int

const (
	answers     cutKind = iota // answers every request with the row's status / code
	dialRefused                // nothing listens on either address
	midRequest                 // accepts, reads the first byte of the request, closes
	afterRead                  // accepts, reads the whole request, closes
)

// end is how one operation's retry loop finished.
type end int

const (
	succeeds  end = iota
	exhausted     // every attempt retryable; the budget ran out
	terminal      // returned on the first attempt, neither retryable nor maybe-applied
	maybe         // *MaybeAppliedError on the first attempt
)

// pause is what the loop asked to sleep between attempts.
type pause int

const (
	byHint    pause = iota // the server's Retry-After, exactly
	byBackoff              // the policy's jittered exponential backoff
)

type cell struct {
	end      end
	sentinel error // errors.Is target of the final error; nil = none of the three
}

var matrixPolicy = RetryPolicy{MaxAttempts: 3, BaseBackoff: 8 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}

// TestClientOutcomeMatrix crosses every failure class a daemon can answer,
// and the three ways a transport can break, with every operation on both
// transports. One want column per operation kind serves both transports:
// that they agree is the assertion. Each cell checks how many attempts the
// daemon saw, what the loop slept (hint or backoff), the final error's type
// and sentinel, and the client's counters.
func TestClientOutcomeMatrix(t *testing.T) {
	all := func(c cell) [numKinds]cell { return [numKinds]cell{c, c, c} }
	rows := []struct {
		name       string
		cut        cutKind
		status     int   // HTTP answer (cut == answers)
		code       uint8 // TError answer; 0 = answer success
		retryAfter int   // seconds; < 0 = no hint
		pause      pause
		want       [numKinds]cell // by kindRead, kindPut, kindIdempotent
	}{
		{name: "ok", status: http.StatusOK, want: all(cell{succeeds, nil})},
		{name: "overloaded_hint", status: http.StatusTooManyRequests, code: wire.CodeOverloaded, retryAfter: 2, pause: byHint,
			want: all(cell{exhausted, ErrOverloaded})},
		{name: "overloaded_no_hint", status: http.StatusTooManyRequests, code: wire.CodeOverloaded, retryAfter: -1, pause: byBackoff,
			want: all(cell{exhausted, ErrOverloaded})},
		{name: "unavailable_retry_now", status: http.StatusServiceUnavailable, code: wire.CodeUnavailable, retryAfter: 0, pause: byHint,
			want: all(cell{exhausted, ErrUnavailable})},
		{name: "read_only", status: http.StatusForbidden, code: wire.CodeReadOnly, retryAfter: -1,
			want: all(cell{terminal, ErrReadOnly})},
		{name: "bad_request", status: http.StatusBadRequest, code: wire.CodeBadRequest, retryAfter: -1,
			want: all(cell{terminal, nil})},
		{name: "deadline", status: http.StatusGatewayTimeout, code: wire.CodeDeadline, retryAfter: -1, pause: byBackoff,
			want: [numKinds]cell{{terminal, nil}, {maybe, nil}, {exhausted, nil}}},
		{name: "internal", status: http.StatusInternalServerError, code: wire.CodeInternal, retryAfter: -1, pause: byBackoff,
			want: [numKinds]cell{{terminal, nil}, {maybe, nil}, {exhausted, nil}}},
		// A failed dial proves nothing was sent: even a put is repeated.
		{name: "connection_refused", cut: dialRefused, pause: byBackoff, want: all(cell{exhausted, nil})},
		// Once the request has begun to leave, whether the daemon read all
		// of it makes no difference to what the client may assume.
		{name: "cut_mid_request", cut: midRequest, pause: byBackoff,
			want: [numKinds]cell{{exhausted, nil}, {maybe, nil}, {exhausted, nil}}},
		{name: "cut_after_request", cut: afterRead, pause: byBackoff,
			want: [numKinds]cell{{exhausted, nil}, {maybe, nil}, {exhausted, nil}}},
	}

	ctx := context.Background()
	box := testBox(t)
	rec := store.Record{Point: box.Lo, Payload: 7}
	ivs := []query.Interval{{Lo: 0, Hi: 16}}
	ops := []struct {
		name string
		kind opKind
		do   func(c *Client) error
	}{
		{"read", kindRead, func(c *Client) error { _, err := c.QueryBox(ctx, box); return err }},
		{"put", kindPut, func(c *Client) error { _, err := c.Put(ctx, rec); return err }},
		{"delete", kindIdempotent, func(c *Client) error { _, err := c.Delete(ctx, rec); return err }},
		{"flush", kindIdempotent, func(c *Client) error { _, err := c.Flush(ctx); return err }},
		{"digest", kindRead, func(c *Client) error { _, err := c.Digest(ctx, ivs); return err }},
	}

	for _, row := range rows {
		d := newFakeDaemon(t, row.cut, row.status, row.code, row.retryAfter)
		for _, door := range []string{"json", "binary"} {
			for _, op := range ops {
				t.Run(row.name+"/"+door+"/"+op.name, func(t *testing.T) {
					c := New(d.url, WithRetryPolicy(matrixPolicy))
					if door == "binary" {
						c = New(d.url, WithRetryPolicy(matrixPolicy),
							WithTransport(&BinaryTransport{Addr: d.wireAddr, Conns: 1}))
					}
					defer c.Close()
					sleeps := recordedSleeps(c)
					seen := d.seen.Load()
					err := op.do(c)
					want := row.want[op.kind]

					attempts := 1
					if want.end == exhausted {
						attempts = matrixPolicy.MaxAttempts
					}
					wantSeen := int64(attempts)
					if row.cut == dialRefused {
						wantSeen = 0
					}
					if got := d.seen.Load() - seen; got != wantSeen {
						t.Errorf("daemon saw %d attempts, want %d", got, wantSeen)
					}
					wantStats := Stats{Queries: 1, Attempts: int64(attempts), Retries: int64(attempts - 1)}
					if want.sentinel == ErrOverloaded {
						wantStats.Shed = int64(attempts)
					}
					if got := c.Stats(); got != wantStats {
						t.Errorf("stats %+v, want %+v", got, wantStats)
					}

					var re *RetryableError
					var ma *MaybeAppliedError
					isExhausted := err != nil && strings.Contains(err.Error(), "attempts exhausted")
					switch want.end {
					case succeeds:
						if err != nil {
							t.Fatalf("err = %v, want success", err)
						}
					case exhausted:
						if !isExhausted || errors.As(err, &ma) {
							t.Errorf("err = %v, want an exhausted retry budget", err)
						}
					case terminal:
						if err == nil || isExhausted || errors.As(err, &re) || errors.As(err, &ma) {
							t.Errorf("err = %v, want a terminal error", err)
						}
					case maybe:
						if !errors.As(err, &ma) {
							t.Errorf("err = %v, want *MaybeAppliedError", err)
						}
					}
					for _, s := range []error{ErrOverloaded, ErrUnavailable, ErrReadOnly} {
						if errors.Is(err, s) != (s == want.sentinel) {
							t.Errorf("errors.Is(%v, %v) = %v, want sentinel %v", err, s, errors.Is(err, s), want.sentinel)
						}
					}

					if len(*sleeps) != attempts-1 {
						t.Fatalf("slept %v, want %d pauses", *sleeps, attempts-1)
					}
					for i, got := range *sleeps {
						switch row.pause {
						case byHint:
							if got != time.Duration(row.retryAfter)*time.Second {
								t.Errorf("pause %d = %v, want the %ds hint", i+1, got, row.retryAfter)
							}
						case byBackoff:
							// Doubled per retry from the base, ±25% jitter.
							mid := matrixPolicy.BaseBackoff << i
							if got < mid*3/4 || got > mid*5/4 {
								t.Errorf("pause %d = %v, want %v ±25%%", i+1, got, mid)
							}
						}
					}
				})
			}
		}
	}
}

// fakeDaemon is both doors of a daemon that fails every request the same
// way: an HTTP listener and a wire listener sharing one attempt counter.
type fakeDaemon struct {
	url, wireAddr string
	seen          atomic.Int64
}

func newFakeDaemon(t *testing.T, how cutKind, status int, code uint8, retryAfter int) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{}
	if how == answers {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d.seen.Add(1)
			io.Copy(io.Discard, r.Body)
			if status == http.StatusOK {
				// Valid for every endpoint: each decoder finds its keys.
				io.WriteString(w, `{"records":[],"complete":true,"ok":true,"count":0,"sum":"0"}`)
				return
			}
			if retryAfter >= 0 {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "nope"})
		}))
		t.Cleanup(ts.Close)
		d.url = ts.URL
		d.wireAddr = serveRaw(t, func(c net.Conn) {
			br := bufio.NewReader(c)
			for {
				f, err := wire.ReadFrame(br)
				if err != nil {
					return
				}
				d.seen.Add(1)
				var payload []byte
				ftype := uint8(wire.TError)
				switch {
				case code != 0:
					payload, err = wire.AppendErrorPayload(nil, wire.ErrorFrame{Code: code, RetryAfterSec: int64(retryAfter), Msg: "nope"})
				case f.Type == wire.TQuery:
					ftype = wire.TTrailer
					payload, err = wire.AppendTrailerPayload(nil, wire.Trailer{})
				default:
					ftype = wire.TWriteAck
					payload, err = wire.AppendWriteAckPayload(nil, wire.WriteAck{Acked: 1, Required: 1})
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Write(wire.AppendFrame(nil, wire.Frame{Type: ftype, ID: f.ID, Payload: payload})); err != nil {
					return
				}
			}
		})
		return d
	}
	cutConn := func(readRequest func(br *bufio.Reader)) string {
		if how == dialRefused {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			return l.Addr().String()
		}
		return serveRaw(t, func(c net.Conn) {
			d.seen.Add(1)
			br := bufio.NewReader(c)
			if how == midRequest {
				br.ReadByte()
				return
			}
			readRequest(br)
		})
	}
	d.url = "http://" + cutConn(func(br *bufio.Reader) {
		if r, err := http.ReadRequest(br); err == nil {
			io.Copy(io.Discard, r.Body)
		}
	})
	d.wireAddr = cutConn(func(br *bufio.Reader) { wire.ReadFrame(br) })
	return d
}

// serveRaw runs handle on every connection to a fresh loopback listener,
// closing each when handle returns, and returns the listener's address.
func serveRaw(t *testing.T, handle func(c net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				handle(c)
			}()
		}
	}()
	return l.Addr().String()
}

// TestResponseTooLarge: a body one byte over MaxResponseBytes is
// ErrResponseTooLarge on a read, a write and a digest — terminal, the
// daemon sees one request — and a body of exactly the cap is accepted.
func TestResponseTooLarge(t *testing.T) {
	const limit = 256
	pad := 0
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		body := `{"records":[],"complete":true,"ok":true,"count":0,"sum":"0"}`
		io.WriteString(w, body+strings.Repeat(" ", limit+pad-len(body)))
	}))
	defer ts.Close()

	ctx := context.Background()
	box := testBox(t)
	c := New(ts.URL, WithTransport(&JSONTransport{Base: ts.URL, MaxResponseBytes: limit}))
	recordedSleeps(c)
	ops := map[string]func() error{
		"read":   func() error { _, err := c.QueryBox(ctx, box); return err },
		"write":  func() error { _, err := c.Put(ctx, store.Record{Point: box.Lo}); return err },
		"digest": func() error { _, err := c.Digest(ctx, []query.Interval{{Lo: 0, Hi: 16}}); return err },
	}
	for name, op := range ops {
		pad = 0
		if err := op(); err != nil {
			t.Fatalf("%s: a body of exactly the cap: %v", name, err)
		}
		pad = 1
		before := calls.Load()
		err := op()
		if !errors.Is(err, ErrResponseTooLarge) {
			t.Fatalf("%s: err = %v, want ErrResponseTooLarge", name, err)
		}
		var ma *MaybeAppliedError
		if errors.As(err, &ma) {
			t.Fatalf("%s: an oversize 200 is an answer, not a maybe: %v", name, err)
		}
		if n := calls.Load() - before; n != 1 {
			t.Fatalf("%s: oversize answer retried: %d requests", name, n)
		}
	}
}

// TestSendOnDeadConnectionIsUnsent: a pooled connection found dead before
// the request frame is written proves the request never left, so even a
// put comes back retryable. (Through a Client the state is a race window —
// conn redials a connection it knows is dead — so it is pinned here.)
func TestSendOnDeadConnectionIsUnsent(t *testing.T) {
	addr := serveRaw(t, func(net.Conn) {})
	tr := &BinaryTransport{Addr: addr, Conns: 1}
	defer tr.Close()
	bc, err := tr.conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-bc.dead
	_, err = bc.send(wire.TPut, nil)
	f, ok := err.(*failure)
	if !ok || f.class != classBroken || f.sent {
		t.Fatalf("send on a dead connection: %#v, want an unsent transport failure", err)
	}
	var re *RetryableError
	if !errors.As(resolve(kindPut, err), &re) {
		t.Fatalf("an unsent put resolved to %v, want *RetryableError", resolve(kindPut, err))
	}
}

// TestExpiredContextSendsNothing: on both transports a context whose
// deadline has passed fails the call before any request is issued.
func TestExpiredContextSendsNothing(t *testing.T) {
	d := newFakeDaemon(t, answers, http.StatusOK, 0, -1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, c := range map[string]*Client{
		"json":   New(d.url),
		"binary": New(d.url, WithTransport(&BinaryTransport{Addr: d.wireAddr})),
	} {
		_, err := c.QueryBox(ctx, testBox(t))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if st := c.Stats(); st.Attempts != 0 || d.seen.Load() != 0 {
			t.Fatalf("%s: %d attempts issued, daemon saw %d; want none", name, st.Attempts, d.seen.Load())
		}
		c.Close()
	}
}

// TestTimeoutClampedToContext: the JSON door asks the server for no more
// than the caller's remaining budget, like the binary door.
func TestTimeoutClampedToContext(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query().Get("timeout")
		okBody(t, w)
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, tc := range []struct {
		opts  []CallOption
		exact string // "" = the remaining budget, whatever it is by now
	}{
		{[]CallOption{WithTimeout(250 * time.Millisecond)}, "250ms"},
		{[]CallOption{WithTimeout(time.Minute)}, ""},
		{nil, ""},
	} {
		if _, err := c.QueryBox(ctx, testBox(t), tc.opts...); err != nil {
			t.Fatal(err)
		}
		if tc.exact != "" {
			if got != tc.exact {
				t.Fatalf("timeout parameter %q, want %q", got, tc.exact)
			}
			continue
		}
		d, err := time.ParseDuration(got)
		if err != nil || d <= 0 || d > 5*time.Second {
			t.Fatalf("timeout parameter %q (%v), want the context's remaining budget (≤ 5s)", got, err)
		}
	}
}

// TestEveryWireCodeHasARow: classOfCode would silently file an error code
// the wire grows later under "internal"; every code the wire can encode
// must be claimed by a row of the outcome table.
func TestEveryWireCodeHasARow(t *testing.T) {
	for code := 0; code < 256; code++ {
		if _, err := wire.AppendErrorPayload(nil, wire.ErrorFrame{Code: uint8(code)}); err != nil {
			continue
		}
		if classOfCode(uint8(code)) == classInternal && code != wire.CodeInternal {
			t.Errorf("wire code 0x%02x has no row in outcomes", code)
		}
	}
}
