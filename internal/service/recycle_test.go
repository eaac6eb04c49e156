package service_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// skipUnderRace skips a test that bounds allocation. Under the race
// detector sync.Pool drops a random quarter of what is put back, so the
// recycled scan buffers are reallocated at a rate no fixed bound holds.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation bounds do not hold under -race: sync.Pool drops buffers at random")
			}
		}
	}
}

// largeScanFixture is the shape of the benchmark's scan_large_stream at a
// quarter of its data: 100k records on a 512×512 hilbert grid in 4 shards,
// and a 160×160 box holding about 10 000 of them, so every shard leg ships
// at least one full batch.
func largeScanFixture(tb testing.TB) (*service.Service, []store.Record, query.Box) {
	tb.Helper()
	u := grid.MustNew(2, 9)
	recs := randomRecords(u, 100_000, 5)
	svc, err := service.New(curve.NewHilbert(u), recs, service.WithShards(4))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	box, err := query.NewBox(u, u.MustPoint(100, 100), u.MustPoint(259, 259))
	if err != nil {
		tb.Fatal(err)
	}
	return svc, recs, box
}

// drainCount drains a RangeStream without keeping anything and returns the
// record count.
func drainCount(tb testing.TB, svc *service.Service, box query.Box) int {
	st, err := svc.RangeStream(context.Background(), box)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	n := 0
	for {
		b, err := st.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		n += len(b)
	}
}

// rangeStreamAllocBound is what one warm ≈10 000-record RangeStream may
// allocate: the stream, its legs' goroutines, channels and cursors — a few
// KiB — and no record buffer. Before buffers were recycled across requests
// the same drain allocated about 1 MiB.
const rangeStreamAllocBound = 64 << 10

// TestRangeStreamSteadyStateAllocs: once the free lists are warm, opening,
// draining and closing a large stream allocates no record buffers.
func TestRangeStreamSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	svc, _, box := largeScanFixture(t)
	want := drainCount(t, svc, box)
	if want < 9000 || want > 11000 {
		t.Fatalf("fixture box holds %d records, want about 10 000", want)
	}
	// Warm the decomposition cache and the free lists: a buffer reaches its
	// working size by append's growth, and a stream takes more buffers at
	// once when its legs happen to run ahead, so the lists settle over some
	// tens of requests, not one.
	for i := 0; i < 50; i++ {
		drainCount(t, svc, box)
	}
	const ops = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if got := drainCount(t, svc, box); got != want {
			t.Fatalf("op %d: %d records, want %d", i, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("RangeStream over %d records allocated %d bytes/op", want, perOp)
	if perOp > rangeStreamAllocBound {
		t.Fatalf("RangeStream over %d records allocated %d bytes/op, bound %d: scan buffers are not being recycled",
			want, perOp, rangeStreamAllocBound)
	}
}

// TestStreamBufferRecycleIsExclusive: a recycled buffer is never reachable
// from two requests. Twelve goroutines stream different boxes at once, a
// third of them abandoning every stream after its first batch (so buffers
// go back from Close with legs still running), and each batch is compared
// with the single-store answer in place — while the stream still owns it
// and every other stream is taking and releasing buffers. Run under -race.
func TestStreamBufferRecycleIsExclusive(t *testing.T) {
	svc, recs, _ := largeScanFixture(t)
	c := svc.Curve()
	u := c.Universe()
	single, err := store.Bulkload(c, recs)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 12, 4
	boxes := make([]query.Box, goroutines)
	want := make([][]store.Record, goroutines)
	for g := range boxes {
		// Distinct boxes of distinct sizes, the larger ones several
		// batches per leg.
		lo, side := uint32(10+9*g), uint32(90+25*g)
		boxes[g], err = query.NewBox(u, u.MustPoint(lo, lo/2), u.MustPoint(lo+side, lo/2+side))
		if err != nil {
			t.Fatal(err)
		}
		res, err := single.ScanBox(context.Background(), boxes[g])
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res.Records
	}
	run := func(g int) error {
		abandon := g%3 == 0
		for r := 0; r < rounds; r++ {
			st, err := svc.RangeStream(context.Background(), boxes[g])
			if err != nil {
				return err
			}
			pos := 0
			for {
				b, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					st.Close()
					return err
				}
				if pos+len(b) > len(want[g]) {
					st.Close()
					return fmt.Errorf("round %d: more than the %d records of the box", r, len(want[g]))
				}
				for i, rec := range b {
					if w := want[g][pos+i]; rec.Payload != w.Payload || !rec.Point.Equal(w.Point) {
						st.Close()
						return fmt.Errorf("round %d: record %d is %v/%d, want %v/%d",
							r, pos+i, rec.Point, rec.Payload, w.Point, w.Payload)
					}
				}
				pos += len(b)
				if abandon {
					break
				}
			}
			st.Close()
			if !abandon && pos != len(want[g]) {
				return fmt.Errorf("round %d: %d records, want %d", r, pos, len(want[g]))
			}
		}
		return nil
	}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = run(g)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d (box %v..%v): %v", g, boxes[g].Lo, boxes[g].Hi, err)
		}
	}
}
