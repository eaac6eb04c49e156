package server_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wire"
)

// wireQueryAllocBound is what the daemon may allocate to answer one warm
// ≈10 000-record box over the binary door: the request frame, its handler
// goroutine and deadline, and the service stream's bookkeeping. The cursor,
// shard-leg and segment buffers come from the free lists; before they did,
// the same answer allocated about 2 MiB.
const wireQueryAllocBound = 64 << 10

// TestWireQuerySteadyStateAllocs is service.TestRangeStreamSteadyStateAllocs
// through the binary door. The test is its own client and decodes nothing —
// it walks the frame headers in a fixed read buffer — so what is counted is
// the server side of the exchange.
func TestWireQuerySteadyStateAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation bounds do not hold under -race: sync.Pool drops buffers at random")
			}
		}
	}
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(8, 8), u.MustPoint(52, 52))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Range(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Records)
	if want < 9000 || want > 11000 {
		t.Fatalf("fixture box holds %d records, want about 10 000", want)
	}

	c, err := net.Dial("tcp", startWire(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	payload, err := wire.AppendQueryRequest(nil, wire.QueryRequest{Lo: box.Lo, Hi: box.Hi})
	if err != nil {
		t.Fatal(err)
	}
	req := wire.AppendFrame(nil, wire.Frame{Type: wire.TQuery, ID: 1, Payload: payload})
	br := bufio.NewReaderSize(c, 1<<16)
	// ask sends the query and counts the records of the answer from the
	// batch headers, without allocating.
	ask := func() int {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		records := 0
		for {
			hdr, err := br.Peek(wire.HeaderSize + 4)
			if err != nil {
				t.Fatalf("reading answer: %v", err)
			}
			typ, n := hdr[3], int(binary.LittleEndian.Uint32(hdr[12:]))
			if typ == wire.TBatch {
				records += int(binary.LittleEndian.Uint32(hdr[wire.HeaderSize:]))
			}
			if _, err := br.Discard(wire.HeaderSize + n); err != nil {
				t.Fatalf("reading answer: %v", err)
			}
			switch typ {
			case wire.TBatch:
			case wire.TTrailer:
				return records
			default:
				t.Fatalf("frame type 0x%02x in the answer", typ)
			}
		}
	}
	// Warm the decomposition cache and the free lists: a buffer reaches its
	// working size by append's growth, and a stream takes more buffers at
	// once when its legs happen to run ahead, so the lists settle over some
	// tens of requests, not one.
	for i := 0; i < 50; i++ {
		ask()
	}
	const ops = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if got := ask(); got != want {
			t.Fatalf("op %d: %d records, want %d", i, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("binary-door query over %d records allocated %d bytes/op", want, perOp)
	if perOp > wireQueryAllocBound {
		t.Fatalf("binary-door query over %d records allocated %d bytes/op, bound %d: scan or segment buffers are not being recycled",
			want, perOp, wireQueryAllocBound)
	}
}
