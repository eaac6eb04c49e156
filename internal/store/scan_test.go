package store_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// TestScanStrictEqualsDegradedFaultFree: on the default device, strict and
// degraded Scan return byte-identical records, identical Stats, identical
// PagesRead — the unified entry point keeps the zero-overhead guarantee.
func TestScanStrictEqualsDegradedFaultFree(t *testing.T) {
	u := grid.MustNew(2, 5)
	rng := rand.New(rand.NewSource(41))
	_, _, st := buildStore(t, u, "hilbert", 1500, 17, store.WithPageSize(8), store.WithFanout(4))
	ctx := context.Background()
	for q := 0; q < 16; q++ {
		b := randomTestBox(rng, u)
		st.ResetStats()
		strict, err := st.ScanBox(ctx, b, store.ScanStrict())
		if err != nil {
			t.Fatalf("strict scan failed without faults: %v", err)
		}
		strictStats := st.Stats()
		st.ResetStats()
		deg, err := st.ScanBox(ctx, b)
		if err != nil {
			t.Fatalf("degraded scan failed: %v", err)
		}
		if !deg.Complete() {
			t.Fatalf("%d dark intervals without faults", len(deg.Unavailable))
		}
		if !reflect.DeepEqual(strict.Records, deg.Records) {
			t.Fatal("degraded records differ from strict")
		}
		if strict.PagesRead != deg.PagesRead {
			t.Fatalf("PagesRead: strict %d, degraded %d", strict.PagesRead, deg.PagesRead)
		}
		if got := st.Stats(); got != strictStats {
			t.Fatalf("degraded stats %+v, strict %+v", got, strictStats)
		}
		if got := st.Stats().LeafReads; got != strict.PagesRead {
			t.Fatalf("PagesRead %d, Stats.LeafReads %d", strict.PagesRead, got)
		}
	}
}

// TestScanWrappersDelegate: the box-level wrappers ScanBox and BoxQuery
// return results bit-identical to Scan over the box's decomposition, dark
// intervals included.
func TestScanWrappersDelegate(t *testing.T) {
	u := grid.MustNew(2, 5)
	rng := rand.New(rand.NewSource(42))
	c, _, st := buildStore(t, u, "z", 2000, 23, store.WithPageSize(4), store.WithFanout(4),
		withFaults(faultio.Config{Seed: 9, LostFrac: 0.15}, nil))
	ctx := context.Background()
	for q := 0; q < 16; q++ {
		b := randomTestBox(rng, u)
		ivs := query.DecomposeBox(c, b)
		res, err := st.Scan(ctx, ivs)
		if err != nil {
			t.Fatal(err)
		}
		box, err := st.ScanBox(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Records, box.Records) ||
			!reflect.DeepEqual(res.Unavailable, box.Unavailable) ||
			res.PagesRead != box.PagesRead {
			t.Fatal("ScanBox diverges from Scan")
		}
		if !reflect.DeepEqual(res.Records, st.BoxQuery(b)) {
			t.Fatal("BoxQuery diverges from Scan")
		}
		strict, strictErr := st.Scan(ctx, ivs, store.ScanStrict())
		strictBox, boxErr := st.ScanBox(ctx, b, store.ScanStrict())
		if (strictErr == nil) != (boxErr == nil) {
			t.Fatalf("strict error mismatch: Scan %v, ScanBox %v", strictErr, boxErr)
		}
		if strictErr == nil && !reflect.DeepEqual(strict.Records, strictBox.Records) {
			t.Fatal("strict ScanBox diverges from strict Scan")
		}
	}
}

// TestScanStrictFailsOnDarkPage: with a permanently lost page, a strict
// scan fails with ErrPageUnavailable while a degraded scan of the same
// intervals reports the loss as dark intervals and keeps the tiling
// contract.
func TestScanStrictFailsOnDarkPage(t *testing.T) {
	u := grid.MustNew(2, 5)
	c, recs, st := buildStore(t, u, "hilbert", 1200, 7, store.WithPageSize(8), store.WithFanout(4),
		withFaults(faultio.Config{Seed: 3, LostPages: []int{2, 3}}, nil))
	ctx := context.Background()
	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	if _, err := st.Scan(ctx, full, store.ScanStrict()); !errors.Is(err, store.ErrPageUnavailable) {
		t.Fatalf("strict scan over a lost page: err = %v, want ErrPageUnavailable", err)
	}
	res, err := st.Scan(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("degraded scan over lost pages reported no dark intervals")
	}
	dark := func(key uint64) bool { return query.IntervalsContain(res.Unavailable, key) }
	want := 0
	for _, r := range recs {
		if !dark(c.Index(r.Point)) {
			want++
		}
	}
	if len(res.Records) != want {
		t.Fatalf("served %d records, want %d (outside dark intervals)", len(res.Records), want)
	}
	for _, r := range res.Records {
		if dark(c.Index(r.Point)) {
			t.Fatalf("record %v lies in a dark interval", r.Point)
		}
	}
}

// TestScanContextCanceled: a canceled context aborts the scan — Store's and
// Durable's — with the context's error and the zero ScanResult: no
// fabricated partial result, no page charge either.
func TestScanContextCanceled(t *testing.T) {
	u := grid.MustNew(2, 5)
	c, recs, st := buildStore(t, u, "z", 1200, 11, store.WithPageSize(4), store.WithFanout(4))
	d := openTestDurable(t, c)
	if err := d.Bulkload(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	for name, scan := range map[string]func(context.Context, []query.Interval, ...store.ScanOption) (store.ScanResult, error){
		"Store.Scan": st.Scan, "Durable.Scan": d.Scan,
	} {
		res, err := scan(ctx, full)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if len(res.Records) != 0 || len(res.Unavailable) != 0 || res.PagesRead != 0 {
			t.Fatalf("%s: canceled scan fabricated a result: %+v", name, res)
		}
	}
}
