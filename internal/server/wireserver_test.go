package server_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wire"
)

// startWire serves the binary protocol for srv on a fresh loopback
// listener and returns its address.
func startWire(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// collectOnce drains one transport-level attempt into the buffered answer:
// what Client.QueryBox does inside its retry loop, without the loop.
func collectOnce(st *client.Stream, err error) (server.QueryResponse, error) {
	if err != nil {
		return server.QueryResponse{}, err
	}
	defer st.Close()
	return st.Collect()
}

// TestWireQueryMatchesInProcess: a box query over the binary transport
// returns exactly what the service returns in-process — records in curve
// order, pages read, shards queried.
func TestWireQueryMatchesInProcess(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)

	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(8, 8), u.MustPoint(23, 23))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Range(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}

	tr := &client.BinaryTransport{Addr: addr}
	defer tr.Close()
	got, err := collectOnce(tr.QueryStream(context.Background(), box, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("got %d records, want %d", len(got.Records), len(want.Records))
	}
	for i, r := range want.Records {
		if !r.Point.Equal(got.Records[i].Point) || r.Payload != got.Records[i].Payload {
			t.Fatalf("record %d: %v/%d want %v/%d", i, got.Records[i].Point, got.Records[i].Payload, r.Point, r.Payload)
		}
	}
	if got.ShardsQueried != want.ShardsQueried || got.PagesRead != want.PagesRead || !got.Complete {
		t.Fatalf("summary: %+v vs %+v", got, want)
	}
}

// TestWireScanStreamsInBatches: a full-universe scan streams multiple
// TBatch frames whose concatenation is the in-process result, and the
// trailer carries the pages-read summary.
func TestWireScanStreamsInBatches(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)

	n := svc.Curve().Universe().N()
	ivs := []query.Interval{{Lo: 0, Hi: n}}
	want, err := svc.Scan(context.Background(), ivs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Records) <= wire.DefaultBatchRecords {
		t.Fatalf("test needs >1 batch, have %d records", len(want.Records))
	}

	tr := &client.BinaryTransport{Addr: addr}
	defer tr.Close()
	st, err := tr.ScanStream(context.Background(), ivs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var batches, total int
	i := 0
	for {
		batch, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches++
		total += len(batch)
		for _, r := range batch {
			if !r.Point.Equal(want.Records[i].Point) || r.Payload != want.Records[i].Payload {
				t.Fatalf("record %d out of curve order: %v/%d want %v/%d", i, r.Point, r.Payload, want.Records[i].Point, want.Records[i].Payload)
			}
			i++
		}
	}
	if total != len(want.Records) || batches < 2 {
		t.Fatalf("streamed %d records in %d batches, want %d records in >=2 batches", total, batches, len(want.Records))
	}
	trailer, ok := st.Trailer()
	if !ok || trailer.PagesRead != want.PagesRead || trailer.ShardsQueried != want.ShardsQueried || !trailer.Complete() {
		t.Fatalf("trailer %+v (ok=%v), want pages=%d shards=%d complete", trailer, ok, want.PagesRead, want.ShardsQueried)
	}
}

// TestWireBadRequestTerminal: unsorted scan intervals come back as a
// terminal (non-retryable) error, mirroring HTTP 400.
func TestWireBadRequestTerminal(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)
	tr := &client.BinaryTransport{Addr: addr}
	defer tr.Close()

	_, err = collectOnce(tr.ScanStream(context.Background(), []query.Interval{{Lo: 9, Hi: 12}, {Lo: 0, Hi: 7}}, 0))
	if err == nil {
		t.Fatal("unsorted intervals accepted")
	}
	var re *client.RetryableError
	if errors.As(err, &re) {
		t.Fatalf("bad request classified retryable: %v", err)
	}
}

// TestWirePipelining: many concurrent queries multiplex over one
// connection and every response demultiplexes to its caller intact.
func TestWirePipelining(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)
	tr := &client.BinaryTransport{Addr: addr, Conns: 1}
	defer tr.Close()

	u := svc.Curve().Universe()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := uint32(w % 8)
			box, err := query.NewBox(u, u.MustPoint(lo*8, lo*8), u.MustPoint(lo*8+7, lo*8+7))
			if err != nil {
				errs <- err
				return
			}
			want, err := svc.Range(context.Background(), box)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 4; i++ {
				got, err := collectOnce(tr.QueryStream(context.Background(), box, 0))
				if err != nil {
					errs <- err
					return
				}
				if len(got.Records) != len(want.Records) {
					errs <- errors.New("pipelined response mismatched its request")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWirePingAndDrain: ping answers ready, drain makes new requests
// retryable-unavailable and in-flight connections close.
func TestWirePingAndDrain(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)
	tr := &client.BinaryTransport{Addr: addr}
	defer tr.Close()

	ready, err := tr.Ping(context.Background())
	if err != nil || !ready {
		t.Fatalf("ping before drain: ready=%v err=%v", ready, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(0, 0), u.MustPoint(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	_, err = collectOnce(tr.QueryStream(context.Background(), box, 0))
	if err == nil {
		t.Fatal("query after drain succeeded")
	}
	var re *client.RetryableError
	if !errors.As(err, &re) {
		t.Fatalf("drain rejection not retryable: %v", err)
	}
}

// TestWireProtocolViolation: a client sending a response-direction frame,
// or a request frame with the high type bit set (checksum valid: it is the
// type check that refuses it), gets its connection dropped, not a hung
// stream.
func TestWireProtocolViolation(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)

	highBit := wire.AppendFrame(nil, wire.Frame{Type: wire.TPing, ID: 2})
	highBit[3] |= 0x80
	wire.FinishFrame(highBit, 0)
	for name, frame := range map[string][]byte{
		"response-direction frame": wire.AppendFrame(nil, wire.Frame{Type: wire.TTrailer, ID: 1}),
		"high type bit":            highBit,
	} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatalf("%s: server answered instead of closing", name)
		} else if strings.Contains(err.Error(), "timeout") {
			t.Fatalf("%s: server hung instead of closing: %v", name, err)
		}
	}
}

// TestWireDeadline: a timeout shorter than the scan maps to CodeDeadline,
// a terminal error.
func TestWireDeadline(t *testing.T) {
	svc := newTestService(t, 2*time.Millisecond)
	srv, err := server.New(svc, server.WithMaxInflight(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)
	tr := &client.BinaryTransport{Addr: addr}
	defer tr.Close()

	n := svc.Curve().Universe().N()
	_, err = collectOnce(tr.ScanStream(context.Background(), []query.Interval{{Lo: 0, Hi: n}}, time.Millisecond))
	if err == nil {
		t.Fatal("deadline ignored")
	}
	var re *client.RetryableError
	if errors.As(err, &re) {
		t.Fatalf("deadline classified retryable: %v", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestWireInfoAdvertisement: /wireinfo is 404 until AdvertiseWire, then
// serves the address and nothing else for a read-only daemon (no
// negotiable feature is advertised); client.WireAddr mirrors both states.
func TestWireInfoAdvertisement(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(hl)
	defer hl.Close()
	base := "http://" + hl.Addr().String()

	c := client.New(base)
	if addr, err := c.WireAddr(context.Background()); err != nil || addr != "" {
		t.Fatalf("before advertise: %q, %v", addr, err)
	}
	srv.AdvertiseWire("127.0.0.1:7173")
	if addr, err := c.WireAddr(context.Background()); err != nil || addr != "127.0.0.1:7173" {
		t.Fatalf("after advertise: %q, %v", addr, err)
	}
	resp, err := http.Get(base + "/wireinfo")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); got != `{"addr":"127.0.0.1:7173"}` {
		t.Fatalf("/wireinfo body %s, want only the address", got)
	}

	var drainErr error
	func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		drainErr = srv.Drain(ctx)
	}()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
}
