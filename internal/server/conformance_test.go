package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
	wiretext "repro/internal/wire/text"
)

// svcNode is an in-process cluster member: a service behind the router's
// Node interface, no network in between.
type svcNode struct{ svc *service.Service }

func (n svcNode) Scan(ctx context.Context, ivs []query.Interval, _ time.Duration) (store.ScanResult, error) {
	res, err := n.svc.Scan(ctx, ivs)
	return store.ScanResult{Records: res.Records, Unavailable: res.Unavailable, PagesRead: int(res.PagesRead)}, err
}
func (n svcNode) Ready(context.Context) bool { return true }
func (n svcNode) Put(ctx context.Context, r store.Record, _ time.Duration) error {
	return n.svc.Put(ctx, r)
}
func (n svcNode) Delete(ctx context.Context, r store.Record, _ time.Duration) error {
	return n.svc.Delete(ctx, r)
}
func (n svcNode) Flush(ctx context.Context, _ time.Duration) error { return n.svc.Flush(ctx) }
func (n svcNode) Digest(ctx context.Context, ivs []query.Interval, _ time.Duration) (service.RangeDigest, error) {
	return n.svc.Digest(ctx, ivs)
}

// door is one front door of a server under test: how to issue an operation
// and report what came back in door-neutral terms.
type door interface {
	// do issues the request and returns the answer: the HTTP status or
	// wire.Code* (0 for success), and whether a retry hint came with it.
	do(t *testing.T, op string, arg any, timeout time.Duration) (answer int, retryAfter bool)
	// start issues the request without waiting for an answer and returns
	// the function that hangs up on it.
	start(t *testing.T, op string, arg any) (hangUp func())
}

// jsonDoor speaks HTTP/JSON to an httptest server over the handler.
type jsonDoor struct{ base string }

func (d jsonDoor) request(ctx context.Context, t *testing.T, op string, arg any, timeout time.Duration) *http.Request {
	t.Helper()
	v := url.Values{}
	if timeout > 0 {
		v.Set("timeout", timeout.String())
	}
	method, body := http.MethodGet, io.Reader(nil)
	switch a := arg.(type) {
	case query.Box:
		v.Set("lo", wiretext.FormatPoint(a.Lo))
		v.Set("hi", wiretext.FormatPoint(a.Hi))
	case []query.Interval:
		v.Set("ivs", wiretext.FormatIntervals(a))
	case store.Record:
		b, _ := json.Marshal(server.WriteRequest{Point: a.Point, Payload: a.Payload})
		method, body = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+"/"+op+"?"+v.Encode(), body)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func (d jsonDoor) do(t *testing.T, op string, arg any, timeout time.Duration) (int, bool) {
	t.Helper()
	resp, err := http.DefaultClient.Do(d.request(context.Background(), t, op, arg, timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusOK {
		return 0, false
	}
	return resp.StatusCode, resp.Header.Get("Retry-After") != ""
}

func (d jsonDoor) start(t *testing.T, op string, arg any) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(d.request(ctx, t, op, arg, 0)); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	return func() { cancel(); <-done }
}

// wireDoor speaks raw frames, one connection per request, so the test sees
// the server's wire.Code* rather than a client's reading of it.
type wireDoor struct {
	addr string
	// spare, when set, is an already-served connection the next do uses —
	// for probing a server whose listener has since closed.
	spare net.Conn
}

// predial opens the spare connection and round-trips a ping on it, so the
// server has accepted it before the caller goes on.
func (d *wireDoor) predial(t *testing.T) {
	t.Helper()
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.TPing, ID: 9})); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(c); err != nil || f.Type != wire.TPong {
		t.Fatalf("ping: frame 0x%02x, %v", f.Type, err)
	}
	d.spare = c
}

func (d *wireDoor) send(t *testing.T, op string, arg any, timeout time.Duration) net.Conn {
	t.Helper()
	var ftype uint8
	var payload []byte
	var err error
	switch a := arg.(type) {
	case query.Box:
		ftype = wire.TQuery
		payload, err = wire.AppendQueryRequest(nil, wire.QueryRequest{Lo: a.Lo, Hi: a.Hi, Timeout: timeout})
	case []query.Interval:
		ftype = wire.TScan
		payload, err = wire.AppendScanRequest(nil, wire.ScanRequest{Ivs: a, Timeout: timeout})
	case store.Record:
		ftype = wire.TPut
		payload, err = wire.AppendWriteRequest(nil, wire.WriteRequest{Point: a.Point, Payload: a.Payload, Timeout: timeout})
	}
	if err != nil {
		t.Fatal(err)
	}
	c := d.spare
	if d.spare = nil; c == nil {
		if c, err = net.Dial("tcp", d.addr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(wire.AppendFrame(nil, wire.Frame{Type: ftype, ID: 1, Payload: payload})); err != nil {
		t.Fatal(err)
	}
	return c
}

func (d *wireDoor) do(t *testing.T, op string, arg any, timeout time.Duration) (int, bool) {
	t.Helper()
	c := d.send(t, op, arg, timeout)
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reading the answer: %v", err)
		}
		switch f.Type {
		case wire.TBatch:
		case wire.TTrailer, wire.TWriteAck:
			return 0, false
		case wire.TError:
			e, err := wire.DecodeErrorPayload(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return int(e.Code), e.RetryAfterSec >= 0
		default:
			t.Fatalf("unexpected frame type 0x%02x", f.Type)
		}
	}
}

func (d *wireDoor) start(t *testing.T, op string, arg any) func() {
	t.Helper()
	c := d.send(t, op, arg, 0)
	return func() { c.Close() }
}

// conformanceFixture is one server over one backend, reachable through
// both doors, every page read costing pageDelay.
type conformanceFixture struct {
	srv  *server.Server
	rt   *cluster.Router // nil for the service backend
	json jsonDoor
	wire *wireDoor
}

const pageDelay = 2 * time.Millisecond

func newConformanceFixture(t *testing.T, backend string, writeQuorum int, opts ...server.Option) *conformanceFixture {
	t.Helper()
	f := &conformanceFixture{}
	var err error
	switch backend {
	case "service":
		f.srv, err = server.New(newTestService(t, pageDelay), opts...)
	case "router":
		// Three members each holding the whole record set: the router only
		// ever asks a member for the segments it holds.
		nodes := make([]cluster.Node, 3)
		for i := range nodes {
			nodes[i] = svcNode{newTestService(t, pageDelay)}
		}
		topo, terr := cluster.NewTopology(nodes[0].(svcNode).svc.Curve(), len(nodes), 2)
		if terr != nil {
			t.Fatal(terr)
		}
		f.rt, err = cluster.NewRouter(topo, nodes, cluster.WithHedgeDelay(0), cluster.WithWriteQuorum(writeQuorum))
		if err != nil {
			t.Fatal(err)
		}
		f.srv, err = server.NewBackend(f.rt.Backend(), opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.srv.Handler())
	t.Cleanup(ts.Close)
	f.json = jsonDoor{ts.URL}
	f.wire = &wireDoor{addr: startWire(t, f.srv)}
	return f
}

// serverCounters are the outcome counters: every request moves exactly one.
var serverCounters = []string{
	"server.ok", "server.bad_request", "server.shed", "server.deadline_exceeded",
	"server.canceled", "server.draining_rejected", "server.errors",
}

func (f *conformanceFixture) counters(t *testing.T) map[string]int64 {
	t.Helper()
	resp, err := http.Get(f.json.base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any // counters are numbers, histograms objects
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for name, v := range doc {
		if n, ok := v.(float64); ok {
			out[name] = int64(n)
		}
	}
	return out
}

// waitCounter polls until the named counter reaches want.
func (f *conformanceFixture) waitCounter(t *testing.T, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.counters(t)[name] != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", name, want, f.counters(t)[name])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFailureClassConformance is the one table both doors and both daemons
// answer to: for {service, router} × {JSON, binary} × every failure class a
// client can provoke, the status code or wire.Code*, whether a Retry-After
// hint comes with it, and which single server.* counter moves.
func TestFailureClassConformance(t *testing.T) {
	u := newTestService(t, 0).Curve().Universe()
	small, err := query.NewBox(u, u.MustPoint(16, 16), u.MustPoint(19, 19))
	if err != nil {
		t.Fatal(err)
	}
	whole := []query.Interval{{Lo: 0, Hi: u.N()}} // thousands of slow pages: seconds of work
	unsorted := []query.Interval{{Lo: 8, Hi: 16}, {Lo: 0, Hi: 4}}
	rec := store.Record{Point: u.MustPoint(3, 4), Payload: 1 << 40}

	type answer struct{ status, code int }
	cases := []struct {
		name string
		// opts and writeQuorum configure the server and (for the router
		// backend) the router; blocked holds an inflight slot with a long
		// scan before the probe; routerOnly skips the service backend.
		opts        []server.Option
		writeQuorum int
		routerOnly  bool
		blocked     bool
		prepare     func(t *testing.T, f *conformanceFixture)
		op          string
		arg         any
		timeout     time.Duration
		hangUp      bool // the probe's client goes away instead of reading an answer
		want        answer
		retryAfter  bool
		counter     string
	}{
		{name: "ok", op: "query", arg: small,
			want: answer{0, 0}, counter: "server.ok"},
		{name: "bad request", op: "scan", arg: unsorted,
			want: answer{http.StatusBadRequest, wire.CodeBadRequest}, counter: "server.bad_request"},
		{name: "shed", blocked: true, op: "query", arg: small,
			opts: []server.Option{server.WithMaxInflight(1), server.WithQueueWait(5 * time.Millisecond)},
			want: answer{http.StatusTooManyRequests, wire.CodeOverloaded}, retryAfter: true, counter: "server.shed"},
		{name: "queued past deadline", blocked: true, op: "query", arg: small, timeout: 20 * time.Millisecond,
			opts: []server.Option{server.WithMaxInflight(1), server.WithQueueWait(5 * time.Second)},
			want: answer{http.StatusGatewayTimeout, wire.CodeDeadline}, counter: "server.deadline_exceeded"},
		{name: "deadline mid-scan", op: "scan", arg: whole, timeout: 10 * time.Millisecond,
			want: answer{http.StatusGatewayTimeout, wire.CodeDeadline}, counter: "server.deadline_exceeded"},
		{name: "draining", op: "query", arg: small,
			prepare: func(t *testing.T, f *conformanceFixture) {
				// A request in flight on the binary door holds Drain open
				// with the flag already set; the listener is closed by
				// then, so the binary probe needs its connection up first.
				t.Cleanup(f.wire.start(t, "scan", whole))
				f.waitCounter(t, "server.inflight", 1)
				f.wire.predial(t)
				go f.srv.Drain(context.Background())
				for !f.srv.Draining() {
					time.Sleep(time.Millisecond)
				}
			},
			want: answer{http.StatusServiceUnavailable, wire.CodeUnavailable}, retryAfter: true, counter: "server.draining_rejected"},
		{name: "read-only", op: "put", arg: rec,
			want: answer{http.StatusForbidden, wire.CodeReadOnly}, counter: "server.bad_request"},
		{name: "quorum unreachable", routerOnly: true, writeQuorum: 2, op: "put", arg: rec,
			prepare: func(t *testing.T, f *conformanceFixture) {
				// R=2 over 3 nodes: with two nodes dead no segment has two
				// live replicas.
				f.rt.MarkDead(0)
				f.rt.MarkDead(1)
			},
			want: answer{http.StatusServiceUnavailable, wire.CodeUnavailable}, retryAfter: true, counter: "server.errors"},
		{name: "client gone", op: "scan", arg: whole, hangUp: true, counter: "server.canceled"},
	}

	for _, backend := range []string{"service", "router"} {
		for _, codec := range []string{"json", "binary"} {
			for _, tc := range cases {
				if tc.routerOnly && backend != "router" {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", backend, codec, tc.name), func(t *testing.T) {
					f := newConformanceFixture(t, backend, tc.writeQuorum, tc.opts...)
					var d door = f.json
					if codec == "binary" {
						d = f.wire
					}
					if tc.blocked {
						release := d.start(t, "scan", whole)
						defer release()
						f.waitCounter(t, "server.inflight", 1)
					}
					if tc.prepare != nil {
						tc.prepare(t, f)
					}
					before := f.counters(t)

					if tc.hangUp {
						hangUp := d.start(t, tc.op, tc.arg)
						f.waitCounter(t, "server.inflight", 1)
						hangUp()
						f.waitCounter(t, "server.inflight", 0)
					} else {
						got, retryAfter := d.do(t, tc.op, tc.arg, tc.timeout)
						want := tc.want.status
						if codec == "binary" {
							want = tc.want.code
						}
						if got != want {
							t.Fatalf("answered %d, want %d", got, want)
						}
						if retryAfter != tc.retryAfter {
							t.Fatalf("retry hint present = %v, want %v", retryAfter, tc.retryAfter)
						}
					}

					// The answer can reach the client a moment before the
					// server counts it.
					f.waitCounter(t, tc.counter, before[tc.counter]+1)
					after := f.counters(t)
					for _, name := range serverCounters {
						want := before[name]
						if name == tc.counter {
							want++
						}
						if after[name] != want {
							t.Errorf("%s moved %d → %d, want %d", name, before[name], after[name], want)
						}
					}
				})
			}
		}
	}
}
