package store_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// TestConcurrentStats hammers one store from many goroutines — queries,
// Stats snapshots, and ResetStats all racing — and checks, under -race,
// that the atomic accounting neither tears nor loses the final quiescent
// counts. This is the regression test for the data race the old plain-int
// Stats fields had under the service layer's concurrent shard scans.
func TestConcurrentStats(t *testing.T) {
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	rng := rand.New(rand.NewSource(7))
	recs := make([]store.Record, 1500)
	for i := range recs {
		recs[i] = store.Record{
			Point:   u.MustPoint(rng.Uint32()%u.Side(), rng.Uint32()%u.Side()),
			Payload: uint64(i),
		}
	}
	st, err := store.Bulkload(c, recs, store.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	boxes := make([]query.Box, 16)
	for i := range boxes {
		a, b := rng.Uint32()%u.Side(), rng.Uint32()%u.Side()
		if a > b {
			a, b = b, a
		}
		boxes[i], err = query.NewBox(u, u.MustPoint(a, a), u.MustPoint(b, b))
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch {
				case g == 0 && i%10 == 0:
					st.ResetStats()
				case g == 1 && i%5 == 0:
					_ = st.Stats() // snapshot while queries are in flight
				default:
					if _, err := st.ScanBox(ctx, boxes[(g*50+i)%len(boxes)], store.ScanStrict()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiescent accounting must still be exact: one more query charges one
	// descent per decomposition interval, observable via the snapshot.
	st.ResetStats()
	if got := st.Stats(); got != (store.Stats{}) {
		t.Fatalf("stats after reset = %+v", got)
	}
	ivs := query.DecomposeBox(c, boxes[0])
	if _, err := st.ScanBox(ctx, boxes[0], store.ScanStrict()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Descents; got != len(ivs) {
		t.Fatalf("descents = %d, want %d (one per interval)", got, len(ivs))
	}
}
