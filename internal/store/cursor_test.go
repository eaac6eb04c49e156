package store_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// drainCursor collects a cursor into the ScanResult shape, checking the
// batch invariants along the way: Keys aligned with Records, every key
// below the batch watermark, and nothing — record key or dark span Lo —
// ever arriving below an earlier watermark.
func drainCursor(t *testing.T, ctx context.Context, cur store.BatchCursor, c curve.Curve) store.ScanResult {
	t.Helper()
	var res store.ScanResult
	prevWM := uint64(0)
	for {
		b, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("cursor Next: %v", err)
		}
		if len(b.Keys) != len(b.Records) {
			t.Fatalf("batch has %d keys for %d records", len(b.Keys), len(b.Records))
		}
		for i, r := range b.Records {
			k := b.Keys[i]
			if c != nil && c.Index(r.Point) != k {
				t.Fatalf("key %d does not match record %v (index %d)", k, r.Point, c.Index(r.Point))
			}
			if k >= b.Watermark {
				t.Fatalf("key %d at or above its batch watermark %d", k, b.Watermark)
			}
			if k < prevWM {
				t.Fatalf("key %d below an earlier watermark %d", k, prevWM)
			}
		}
		for _, d := range b.Dark {
			if d.Lo < prevWM {
				t.Fatalf("dark span [%d, %d) starts below an earlier watermark %d", d.Lo, d.Hi, prevWM)
			}
		}
		prevWM = b.Watermark
		res.Records = append(res.Records, b.Records...)
		res.Unavailable = append(res.Unavailable, b.Dark...)
		res.PagesRead += b.PagesRead
	}
	res.Unavailable = query.MergeIntervals(res.Unavailable)
	cur.Close()
	return res
}

// sameSlices is reflect.DeepEqual with nil and empty considered equal —
// the cursor accumulates into nil slices where Scan pre-allocates.
func sameSlices[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}

// dupHeavyStore builds a store whose records are drawn from a small pool
// of points, so long runs of duplicate curve keys straddle page
// boundaries — the case the cursor's boundary holdback exists for.
func dupHeavyStore(t *testing.T, u *grid.Universe, name string, n, pool int, seed int64, ps int, opts ...store.Option) (curve.Curve, *store.Store) {
	t.Helper()
	c, err := curve.ByName(name, u, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]grid.Point, pool)
	for i := range pts {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		pts[i] = p
	}
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{Point: pts[rng.Intn(pool)], Payload: uint64(i)}
	}
	st, err := store.Bulkload(c, recs, append([]store.Option{store.WithPageSize(ps), store.WithFanout(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

// TestCursorEqualsScanProperty: draining ScanCursor is bit-identical to
// Scan — records, merged dark tiling, PagesRead, and Stats charges — for
// random boxes over duplicate-heavy stores with injected page loss, across
// page geometries and batch sizes.
func TestCursorEqualsScanProperty(t *testing.T) {
	u := grid.MustNew(2, 5)
	ctx := context.Background()
	for _, cfg := range []struct {
		curveName string
		ps        int
		batch     int
		lostFrac  float64
		seed      int64
	}{
		{"hilbert", 4, 1, 0.2, 11},
		{"hilbert", 8, 3, 0.15, 12},
		{"z", 2, 7, 0.3, 13},
		{"z", 8, 4096, 0.1, 14},
		{"snake", 16, 64, 0, 15},
	} {
		var opts []store.Option
		if cfg.lostFrac > 0 {
			opts = append(opts, withFaults(faultio.Config{Seed: cfg.seed, LostFrac: cfg.lostFrac}, nil))
		}
		c, st := dupHeavyStore(t, u, cfg.curveName, 3000, 40, cfg.seed, cfg.ps, opts...)
		rng := rand.New(rand.NewSource(cfg.seed * 101))
		for q := 0; q < 12; q++ {
			ivs := query.DecomposeBox(c, randomTestBox(rng, u))
			st.ResetStats()
			want, err := st.Scan(ctx, ivs)
			if err != nil {
				t.Fatal(err)
			}
			scanStats := st.Stats()
			// Twice back to back: the second cursor runs on the buffers the
			// first one gave back.
			for pass := 0; pass < 2; pass++ {
				st.ResetStats()
				cur, err := st.ScanCursor(ivs, store.ScanBatchSize(cfg.batch))
				if err != nil {
					t.Fatal(err)
				}
				got := drainCursor(t, ctx, cur, c)
				if !sameSlices(got.Records, want.Records) {
					t.Fatalf("ps=%d batch=%d pass=%d: cursor records diverge from Scan (%d vs %d)",
						cfg.ps, cfg.batch, pass, len(got.Records), len(want.Records))
				}
				if !sameSlices(got.Unavailable, want.Unavailable) {
					t.Fatalf("ps=%d batch=%d pass=%d: cursor dark %v, Scan dark %v",
						cfg.ps, cfg.batch, pass, got.Unavailable, want.Unavailable)
				}
				if got.PagesRead != want.PagesRead {
					t.Fatalf("ps=%d batch=%d pass=%d: cursor PagesRead %d, Scan %d",
						cfg.ps, cfg.batch, pass, got.PagesRead, want.PagesRead)
				}
				if cursorStats := st.Stats(); cursorStats != scanStats {
					t.Fatalf("pass=%d: cursor stats %+v, Scan stats %+v", pass, cursorStats, scanStats)
				}
			}
		}
	}
}

// TestDurableCursorEqualsScan: the Durable cursor's k-way merge — runs,
// tombstones, memtable — drains bit-identically to Durable.Scan, under
// injected loss on the run devices.
func TestDurableCursorEqualsScan(t *testing.T) {
	u := grid.MustNew(2, 5)
	h, err := curve.ByName("hilbert", u, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, lossSeed := range []int64{0, 21, 22} {
		wrap := store.DeviceWrapper(nil)
		if lossSeed != 0 {
			wrap = func(d store.PageDevice) (store.PageDevice, error) {
				return faultio.Wrap(d, faultio.Config{Seed: lossSeed, LostFrac: 0.15})
			}
		}
		opts := []store.DurableOption{
			store.WithDurablePageSize(4),
			store.WithMemLimit(1 << 20),
			store.WithAutoCompact(false),
		}
		if wrap != nil {
			opts = append(opts, store.WithRunWrapper(wrap))
		}
		d, err := store.OpenDurable(t.TempDir(), h, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		rng := rand.New(rand.NewSource(lossSeed + 7))
		pool := make([]grid.Point, 30)
		for i := range pool {
			pool[i] = u.MustPoint(uint32(rng.Intn(int(u.Side()))), uint32(rng.Intn(int(u.Side()))))
		}
		var live []store.Record
		// Three flushed runs with deletions in between (tombstones shadow
		// older runs), then a resident memtable with more puts and deletes.
		for round := 0; round < 4; round++ {
			for i := 0; i < 150; i++ {
				r := store.Record{Point: pool[rng.Intn(len(pool))], Payload: uint64(round*1000 + i)}
				if err := d.Put(ctx, r); err != nil {
					t.Fatal(err)
				}
				live = append(live, r)
			}
			for i := 0; i < 20 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				if err := d.Delete(ctx, live[j]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			}
			if round < 3 {
				if err := d.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := d.Runs(); got != 3 {
			t.Fatalf("runs = %d, want 3", got)
		}
		rq := rand.New(rand.NewSource(lossSeed + 99))
		for q := 0; q < 10; q++ {
			ivs := query.DecomposeBox(h, randomTestBox(rq, u))
			want, err := d.Scan(ctx, ivs)
			if err != nil {
				t.Fatal(err)
			}
			batch := 1 + rq.Intn(64)
			for pass := 0; pass < 2; pass++ { // the second on recycled buffers
				cur, err := d.ScanCursor(ivs, store.ScanBatchSize(batch))
				if err != nil {
					t.Fatal(err)
				}
				got := drainCursor(t, ctx, cur, h)
				if !sameSlices(got.Records, want.Records) {
					t.Fatalf("seed %d pass %d: durable cursor records diverge (%d vs %d)",
						lossSeed, pass, len(got.Records), len(want.Records))
				}
				if !sameSlices(query.MergeIntervals(got.Unavailable), want.Unavailable) {
					t.Fatalf("seed %d pass %d: durable cursor dark %v, Scan dark %v",
						lossSeed, pass, got.Unavailable, want.Unavailable)
				}
				if got.PagesRead != want.PagesRead {
					t.Fatalf("seed %d pass %d: durable cursor PagesRead %d, Scan %d", lossSeed, pass, got.PagesRead, want.PagesRead)
				}
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ScanCursor(nil); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("ScanCursor on closed store: %v, want ErrClosed", err)
		}
	}
}

// TestCursorStrictFailsOnDarkPage: under ScanStrict the cursor fails with
// ErrPageUnavailable at the first lost page, and the error is sticky.
func TestCursorStrictFailsOnDarkPage(t *testing.T) {
	u := grid.MustNew(2, 5)
	_, _, st := buildStore(t, u, "hilbert", 1200, 7, store.WithPageSize(8), store.WithFanout(4),
		withFaults(faultio.Config{Seed: 3, LostPages: []int{2, 3}}, nil))
	ctx := context.Background()
	// Twice: the second cursor runs on the buffers the failed first one
	// gave back half full.
	for pass := 0; pass < 2; pass++ {
		cur, err := st.ScanCursor([]query.Interval{{Lo: 0, Hi: u.N()}}, store.ScanStrict())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			_, err := cur.Next(ctx)
			if err != nil {
				if !errors.Is(err, store.ErrPageUnavailable) {
					t.Fatalf("strict cursor err = %v, want ErrPageUnavailable", err)
				}
				if _, again := cur.Next(ctx); !errors.Is(again, store.ErrPageUnavailable) {
					t.Fatalf("error not sticky: %v", again)
				}
				break
			}
			if i > 1000 {
				t.Fatal("strict cursor never failed over a lost page")
			}
		}
		cur.Close()
	}
}

// TestCursorContextCanceled: a canceled context fails Next with the
// context's error, with no fabricated batch.
func TestCursorContextCanceled(t *testing.T) {
	u := grid.MustNew(2, 5)
	_, _, st := buildStore(t, u, "z", 1200, 11, store.WithPageSize(4), store.WithFanout(4))
	cur, err := st.ScanCursor([]query.Interval{{Lo: 0, Hi: u.N()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := cur.Next(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(b.Records) != 0 || len(b.Dark) != 0 {
		t.Fatalf("canceled Next fabricated a batch: %+v", b)
	}
}

// TestCursorRejectsUnsortedIntervals: the watermark contract needs sorted,
// disjoint intervals, so the constructor enforces them.
func TestCursorRejectsUnsortedIntervals(t *testing.T) {
	u := grid.MustNew(2, 5)
	_, _, st := buildStore(t, u, "z", 100, 11, store.WithPageSize(4), store.WithFanout(4))
	if _, err := st.ScanCursor([]query.Interval{{Lo: 10, Hi: 20}, {Lo: 5, Hi: 9}}); err == nil {
		t.Fatal("unsorted intervals accepted")
	}
	if _, err := st.ScanCursor([]query.Interval{{Lo: 20, Hi: 10}}); err == nil {
		t.Fatal("inverted interval accepted")
	}
}

// TestCursorNextAllocs: once its buffers are warm, a cursor batch costs
// zero allocations on the in-memory device — the regression gate for the
// streaming hot path.
func TestCursorNextAllocs(t *testing.T) {
	u := grid.MustNew(2, 5)
	_, _, st := buildStore(t, u, "hilbert", 8000, 5, store.WithPageSize(8), store.WithFanout(4))
	ivs := []query.Interval{{Lo: 0, Hi: u.N()}}
	ctx := context.Background()
	cur, err := st.ScanCursor(ivs, store.ScanBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 70; i++ { // warm the reused buffers to their high-water marks
		if _, err := cur.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := cur.Next(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state cursor Next allocated %.1f times, want 0", allocs)
	}
}
