package store_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// keyLoadOrder returns the records as a bulkload lays them out — ascending
// curve key, load order within a key — with their key column.
func keyLoadOrder(c curve.Curve, recs []store.Record) ([]uint64, []store.Record) {
	sorted := append([]store.Record(nil), recs...)
	sort.SliceStable(sorted, func(a, b int) bool { return c.Index(sorted[a].Point) < c.Index(sorted[b].Point) })
	keys := make([]uint64, len(sorted))
	for i, r := range sorted {
		keys[i] = c.Index(r.Point)
	}
	return keys, sorted
}

// dupHeavyStore builds a store whose records are drawn from a small pool
// of points, so long runs of duplicate curve keys straddle page
// boundaries — the case the cursor's boundary holdback exists for.
func dupHeavyStore(t *testing.T, u *grid.Universe, name string, n, pool int, seed int64, ps int, opts ...store.Option) (curve.Curve, []store.Record, *store.Store) {
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
	return c, recs, st
}

// TestCursorEqualsScanProperty: the drained cursor and Scan — which is that
// cursor behind Collect, so comparing the two would prove nothing — both
// return exactly what the definitional oracle modelScan computes from the
// bulk-loaded records and the injector's lost pages: records, merged dark
// tiling, PagesRead, and the Stats charges of the classic cost model. For
// random boxes over duplicate-heavy stores with injected page loss, across
// page geometries and batch sizes, each case twice so the second pass runs
// on recycled buffers; Scan is also the same at every batch size.
func TestCursorEqualsScanProperty(t *testing.T) {
	u := grid.MustNew(2, 5)
	ctx := context.Background()
	cfgs := []struct {
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
	}
	for _, cfg := range cfgs {
		var inj *faultio.Injector
		var opts []store.Option
		if cfg.lostFrac > 0 {
			opts = append(opts, withFaults(faultio.Config{Seed: cfg.seed, LostFrac: cfg.lostFrac}, &inj))
		}
		c, recs, st := dupHeavyStore(t, u, cfg.curveName, 3000, 40, cfg.seed, cfg.ps, opts...)
		keys, sorted := keyLoadOrder(c, recs)
		var lost []int
		if inj != nil {
			lost = inj.Lost()
		}
		rng := rand.New(rand.NewSource(cfg.seed * 101))
		degraded := 0
		for q := 0; q < 12; q++ {
			ivs := query.DecomposeBox(c, randomTestBox(rng, u))
			want := store.ModelScan(keys, sorted, cfg.ps, lost, ivs)
			if !want.Complete() {
				degraded++
			}
			label := fmt.Sprintf("%s ps=%d batch=%d box %d", cfg.curveName, cfg.ps, cfg.batch, q)
			checkStats := func(label string) {
				t.Helper()
				got := st.Stats()
				if got.Descents != len(ivs) || got.LeafReads != want.PagesRead || got.InnerReads != len(ivs)*st.Height() {
					t.Fatalf("%s: stats %+v, want %d descents (one per interval), %d leaf reads, %d inner reads",
						label, got, len(ivs), want.PagesRead, len(ivs)*st.Height())
				}
			}
			// Twice back to back: the second cursor runs on the buffers the
			// first one gave back.
			for pass := 0; pass < 2; pass++ {
				st.ResetStats()
				cur, err := st.ScanCursor(ivs, store.ScanBatchSize(cfg.batch))
				if err != nil {
					t.Fatal(err)
				}
				passLabel := fmt.Sprintf("%s cursor pass %d", label, pass)
				store.SameResult(t, passLabel, store.DrainCursor(t, ctx, cur, c), want)
				checkStats(passLabel)
			}
			for _, other := range cfgs {
				st.ResetStats()
				got, err := st.Scan(ctx, ivs, store.ScanBatchSize(other.batch))
				if err != nil {
					t.Fatal(err)
				}
				scanLabel := fmt.Sprintf("%s Scan at batch %d", label, other.batch)
				store.SameResult(t, scanLabel, got, want)
				checkStats(scanLabel)
			}
		}
		if (degraded > 0) != (cfg.lostFrac > 0) {
			t.Fatalf("%s ps=%d: %d of 12 boxes degraded at loss %.2f — the row tests nothing it was built for",
				cfg.curveName, cfg.ps, degraded, cfg.lostFrac)
		}
	}
}

// TestCursorStrictFailsOnDarkPage: under ScanStrict the cursor fails with
// ErrPageUnavailable at the first lost page, and the error is sticky; a
// strict Scan fails the same way and returns nothing. Whatever runs next
// gets the buffers the failed scan gave back half full, and must not show
// it.
func TestCursorStrictFailsOnDarkPage(t *testing.T) {
	u := grid.MustNew(2, 5)
	var inj *faultio.Injector
	c, recs, st := buildStore(t, u, "hilbert", 1200, 7, store.WithPageSize(8), store.WithFanout(4),
		withFaults(faultio.Config{Seed: 3, LostPages: []int{2, 3}}, &inj))
	ctx := context.Background()
	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	keys, sorted := keyLoadOrder(c, recs)
	want := store.ModelScan(keys, sorted, 8, inj.Lost(), full)
	for pass := 0; pass < 2; pass++ {
		cur, err := st.ScanCursor(full, store.ScanStrict())
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
		res, err := st.Scan(ctx, full, store.ScanStrict(), store.ScanBatchSize(5))
		if !errors.Is(err, store.ErrPageUnavailable) {
			t.Fatalf("strict Scan err = %v, want ErrPageUnavailable", err)
		}
		if !reflect.DeepEqual(res, store.ScanResult{}) {
			t.Fatalf("failed strict Scan returned %+v, want the zero ScanResult", res)
		}
		res, err = st.Scan(ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		store.SameResult(t, fmt.Sprintf("degraded Scan after failed strict scans, pass %d", pass), res, want)
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

// openTestDurable opens an empty durable store over c in a fresh directory.
func openTestDurable(t *testing.T, c curve.Curve) *store.Durable {
	t.Helper()
	d, err := store.OpenDurable(t.TempDir(), c, store.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestCursorRejectsUnsortedIntervals: the watermark contract and the dark
// tiling need sorted, disjoint intervals, and every scan — cursor or Scan,
// Store or Durable — is the cursor that enforces them.
func TestCursorRejectsUnsortedIntervals(t *testing.T) {
	u := grid.MustNew(2, 5)
	c, _, st := buildStore(t, u, "z", 100, 11, store.WithPageSize(4), store.WithFanout(4))
	d := openTestDurable(t, c)
	ctx := context.Background()
	for name, ivs := range map[string][]query.Interval{
		"unsorted":    {{Lo: 10, Hi: 20}, {Lo: 5, Hi: 9}},
		"overlapping": {{Lo: 10, Hi: 20}, {Lo: 19, Hi: 30}},
		"inverted":    {{Lo: 20, Hi: 10}},
	} {
		_, curErr := st.ScanCursor(ivs)
		_, durCurErr := d.ScanCursor(ivs)
		res, scanErr := st.Scan(ctx, ivs)
		durRes, durScanErr := d.Scan(ctx, ivs)
		for entry, err := range map[string]error{
			"Store.ScanCursor": curErr, "Durable.ScanCursor": durCurErr, "Store.Scan": scanErr, "Durable.Scan": durScanErr,
		} {
			if err == nil {
				t.Fatalf("%s accepted %s intervals", entry, name)
			}
		}
		if !reflect.DeepEqual(res, store.ScanResult{}) || !reflect.DeepEqual(durRes, store.ScanResult{}) {
			t.Fatalf("%s intervals: rejected Scans returned %+v and %+v", name, res, durRes)
		}
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
