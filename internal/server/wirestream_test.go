package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestWireTrailingFlagsByteIsBadRequest: a request payload has one legal
// length. A TScan carrying a trailing flags byte is answered with one
// TError CodeBadRequest and no records, and the connection stays usable.
func TestWireTrailingFlagsByteIsBadRequest(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", startWire(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))

	payload, err := wire.AppendScanRequest(nil, wire.ScanRequest{
		Ivs: []query.Interval{{Lo: 0, Hi: svc.Curve().Universe().N()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := wire.AppendFrame(nil, wire.Frame{Type: wire.TScan, ID: 7, Payload: append(payload, 0x01)})
	req = wire.AppendFrame(req, wire.Frame{Type: wire.TPing, ID: 8})
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	sawPong := false
	for i := 0; i < 2; i++ {
		f, err := wire.ReadFrame(c)
		if err != nil {
			t.Fatalf("reading answer %d: %v", i, err)
		}
		switch {
		case f.ID == 7 && f.Type == wire.TError:
			if e, err := wire.DecodeErrorPayload(f.Payload); err != nil || e.Code != wire.CodeBadRequest {
				t.Fatalf("flagged scan: %+v, %v, want CodeBadRequest", e, err)
			}
		case f.ID == 8 && f.Type == wire.TPong:
			sawPong = true
		default:
			t.Fatalf("unexpected frame type 0x%02x for id %d", f.Type, f.ID)
		}
	}
	if !sawPong {
		t.Fatal("the ping pipelined behind the refused scan was never answered")
	}
}

// TestWireStreamDisconnectReleases: a client that vanishes mid-stream must
// not pin the server's admission slot or shard workers. With the inflight
// limit at 1, a leaked slot would make every follow-up request shed — so a
// promptly successful follow-up query is the release proof.
func TestWireStreamDisconnectReleases(t *testing.T) {
	svc := newTestService(t, 500*time.Microsecond) // slow pages: the scan outlives the disconnect
	srv, err := server.New(svc, server.WithMaxInflight(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)

	n := svc.Curve().Universe().N()
	tr := &client.BinaryTransport{Addr: addr, Conns: 1}
	st, err := tr.ScanStream(context.Background(), []query.Interval{{Lo: 0, Hi: n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatalf("first batch before disconnect: %v", err)
	}
	// Drop the connection with the stream mid-flight. The server sees the
	// read side close, cancels the per-connection context, and the stream's
	// shard legs unwind between batches.
	st.Close()
	tr.Close()

	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(0, 0), u.MustPoint(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := &client.BinaryTransport{Addr: addr}
	defer tr2.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err := collectOnce(tr2.QueryStream(context.Background(), box, 0))
		if err == nil {
			return
		}
		var re *client.RetryableError
		if !errors.As(err, &re) {
			t.Fatalf("follow-up query failed terminally: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight slot never released after disconnect: still %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tearingRelay listens between a client and the wire listener at addr. It
// forwards every frame, except that on each of its first tear connections
// it forwards the trailer's header and half its payload and then cuts the
// connection: the torn-tail shape a crash leaves behind. Later connections
// pass through whole.
func tearingRelay(t *testing.T, addr string, tear int) string {
	t.Helper()
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	forward := func(cc net.Conn, tear bool) {
		defer cc.Close()
		sc, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer sc.Close()
		go io.Copy(sc, cc)
		hdr := make([]byte, wire.HeaderSize)
		for {
			if _, err := io.ReadFull(sc, hdr); err != nil {
				return
			}
			n := int64(binary.LittleEndian.Uint32(hdr[12:16]))
			if tear && hdr[3] == wire.TTrailer {
				cc.Write(hdr)
				io.CopyN(cc, sc, n/2)
				return
			}
			if _, err := cc.Write(hdr); err != nil {
				return
			}
			if _, err := io.CopyN(cc, sc, n); err != nil {
				return
			}
		}
	}
	go func() {
		for i := 0; ; i++ {
			cc, err := relay.Accept()
			if err != nil {
				return
			}
			go forward(cc, i < tear)
		}
	}()
	return relay.Addr().String()
}

// TestWireTornConnectionTruncated: when the connection dies before the
// trailer arrives, the client must surface wire.ErrTruncated (retryably) —
// batches without a trailer are an uncommitted result, never silently
// returned as complete. A relay between client and server forwards every
// frame but cuts the connection partway through the trailer frame.
func TestWireTornConnectionTruncated(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)

	n := svc.Curve().Universe().N()
	tr := &client.BinaryTransport{Addr: tearingRelay(t, addr, 1), Conns: 1}
	defer tr.Close()
	st, err := tr.ScanStream(context.Background(), []query.Interval{{Lo: 0, Hi: n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batches := 0
	for {
		_, err := st.Next()
		if err == nil {
			batches++
			continue
		}
		if err == io.EOF {
			t.Fatal("torn stream reported clean EOF: truncation went undetected")
		}
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("torn stream error %v, want wire.ErrTruncated", err)
		}
		var re *client.RetryableError
		if !errors.As(err, &re) {
			t.Fatalf("truncation not classified retryable: %v", err)
		}
		break
	}
	if batches == 0 {
		t.Fatal("no batches before the tear; the cut did not exercise mid-stream truncation")
	}
	if _, ok := st.Trailer(); ok {
		t.Fatal("trailer reported present on a torn stream")
	}
}

// TestTornAnswerRetryBoundary: the same torn first answer on either side of
// the buffered/streaming boundary. A buffered QueryBox is open + drain
// inside one attempt, so the tear is one failed attempt and the second
// succeeds with the whole answer; a QueryBoxStream had its open accepted,
// so the tear surfaces from Next — retryable for the caller to act on, not
// retried by the client.
func TestTornAnswerRetryBoundary(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startWire(t, srv)
	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(0, 0), u.MustPoint(u.Side()-1, u.Side()-1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Range(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}
	newClient := func() *client.Client {
		return client.New("", client.WithRetryPolicy(client.RetryPolicy{BaseBackoff: time.Millisecond}),
			client.WithTransport(&client.BinaryTransport{Addr: tearingRelay(t, addr, 1), Conns: 1}))
	}

	cl := newClient()
	defer cl.Close()
	got, err := cl.QueryBox(context.Background(), box)
	if err != nil {
		t.Fatalf("buffered query through a relay tearing the first answer: %v", err)
	}
	if len(got.Records) != len(want.Records) || !got.Complete {
		t.Fatalf("second attempt returned %d records (complete=%v), want %d", len(got.Records), got.Complete, len(want.Records))
	}
	for i, r := range want.Records {
		if !r.Point.Equal(got.Records[i].Point) || r.Payload != got.Records[i].Payload {
			t.Fatalf("record %d: %v/%d want %v/%d", i, got.Records[i].Point, got.Records[i].Payload, r.Point, r.Payload)
		}
	}
	if st := cl.Stats(); st.Retries != 1 || st.Attempts != 2 {
		t.Fatalf("stats %+v, want exactly one retry", st)
	}

	cl = newClient()
	defer cl.Close()
	st, err := cl.QueryBoxStream(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for err == nil {
		_, err = st.Next()
	}
	var re *client.RetryableError
	if !errors.Is(err, wire.ErrTruncated) || !errors.As(err, &re) {
		t.Fatalf("torn stream ended with %v, want wire.ErrTruncated as a *RetryableError", err)
	}
	if st := cl.Stats(); st.Retries != 0 || st.Attempts != 1 {
		t.Fatalf("stats %+v: a torn stream must not be retried by the client", st)
	}
}
