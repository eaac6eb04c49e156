package store_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

func buildStore(t *testing.T, u *grid.Universe, name string, n int, seed int64, opts ...store.Option) (curve.Curve, []store.Record, *store.Store) {
	t.Helper()
	c, err := curve.ByName(name, u, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	recs := make([]store.Record, n)
	for i := range recs {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		recs[i] = store.Record{Point: p, Payload: uint64(i)}
	}
	st, err := store.Bulkload(c, recs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, recs, st
}

// withFaults is the Bulkload option that routes leaf reads through a fault
// injector over the bulkloaded device; a non-nil inj receives the injector.
func withFaults(cfg faultio.Config, inj **faultio.Injector) store.Option {
	return store.WithDeviceWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
		fi, err := faultio.Wrap(dev, cfg)
		if inj != nil {
			*inj = fi
		}
		return fi, err
	})
}

// TestDegradedZeroOverheadProperty is the zero-overhead guarantee: with the
// injector disabled (and with no injector at all), a degraded ScanBox
// returns byte-identical records and identical Stats to a strict one,
// across curves, page geometries and query boxes.
func TestDegradedZeroOverheadProperty(t *testing.T) {
	u := grid.MustNew(2, 5)
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for _, name := range curve.Names() {
		for _, ps := range []int{2, 8, 64} {
			opts := []store.Option{store.WithPageSize(ps), store.WithFanout(4)}
			// Half the configurations also get a disabled injector in the
			// read path, so the wrapper itself is covered.
			if ps != 8 {
				opts = append(opts, withFaults(faultio.Config{Seed: 5}, nil))
			}
			_, _, st := buildStore(t, u, name, 1500, 17, opts...)
			for q := 0; q < 8; q++ {
				b := randomTestBox(rng, u)
				st.ResetStats()
				strict, err := st.ScanBox(ctx, b, store.ScanStrict())
				if err != nil {
					t.Fatalf("%s ps=%d: strict query failed without faults: %v", name, ps, err)
				}
				strictStats := st.Stats()
				st.ResetStats()
				deg, err := st.ScanBox(ctx, b)
				if err != nil {
					t.Fatal(err)
				}
				if !deg.Complete() {
					t.Fatalf("%s ps=%d: %d dark intervals without faults", name, ps, len(deg.Unavailable))
				}
				if !reflect.DeepEqual(strict.Records, deg.Records) {
					t.Fatalf("%s ps=%d: degraded records differ from strict", name, ps)
				}
				if got := st.Stats(); got != strictStats {
					t.Fatalf("%s ps=%d: degraded stats %+v, strict %+v", name, ps, got, strictStats)
				}
			}
		}
	}
}

func randomTestBox(rng *rand.Rand, u *grid.Universe) query.Box {
	lo := u.NewPoint()
	hi := u.NewPoint()
	for j := range lo {
		a := uint32(rng.Intn(int(u.Side())))
		b := uint32(rng.Intn(int(u.Side())))
		if a > b {
			a, b = b, a
		}
		lo[j], hi[j] = a, b
	}
	b, err := query.NewBox(u, lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// TestDegradedLostPages kills explicit pages and checks the degraded
// report: returned records plus dark intervals exactly cover the box, and
// the dark intervals stay within the box's curve footprint.
func TestDegradedLostPages(t *testing.T) {
	u := grid.MustNew(2, 5)
	const records, pageSize = 2000, 8
	lost := []int{0, 7, 8, 31, records/pageSize - 1} // the last page included
	c, recs, st := buildStore(t, u, "hilbert", records, 3, store.WithPageSize(pageSize), store.WithFanout(4),
		withFaults(faultio.Config{Seed: 1, LostPages: lost}, nil))
	ctx := context.Background()
	full, err := query.NewBox(u, u.NewPoint(), u.MustPoint(u.Side()-1, u.Side()-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ScanBox(ctx, full, store.ScanStrict()); !errors.Is(err, store.ErrPageUnavailable) {
		t.Fatalf("strict query over lost pages: err = %v, want ErrPageUnavailable", err)
	}
	st.ResetStats()
	res, err := st.ScanBox(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("query over lost pages reported complete")
	}
	dark := func(key uint64) bool {
		for _, iv := range res.Unavailable {
			if key >= iv.Lo && key < iv.Hi {
				return true
			}
		}
		return false
	}
	want := 0
	for _, r := range recs {
		if !dark(c.Index(r.Point)) {
			want++
		}
	}
	if len(res.Records) != want {
		t.Fatalf("served %d records, want %d (ground truth minus dark intervals)", len(res.Records), want)
	}
	for _, r := range res.Records {
		if dark(c.Index(r.Point)) {
			t.Fatalf("record %v returned from a dark interval", r.Point)
		}
	}
	// Each lost page's key span must be dark.
	for _, iv := range res.Unavailable {
		if iv.Lo >= iv.Hi {
			t.Fatalf("degenerate dark interval %+v", iv)
		}
	}
	if st.Stats().PagesUnavailable != len(lost) {
		t.Fatalf("PagesUnavailable = %d, lost %d pages", st.Stats().PagesUnavailable, len(lost))
	}
}

// TestChecksumCatchesCorruption forces corruption on every read and checks
// that the store never returns a corrupted record: reads are rejected,
// retried, and ultimately reported unavailable rather than served wrong.
func TestChecksumCatchesCorruption(t *testing.T) {
	u := grid.MustNew(2, 4)
	var inj *faultio.Injector
	_, _, st := buildStore(t, u, "z", 600, 9, store.WithPageSize(8), store.WithFanout(4),
		withFaults(faultio.Config{Seed: 2, CorruptProb: 1}, &inj))
	full, err := query.NewBox(u, u.NewPoint(), u.MustPoint(u.Side()-1, u.Side()-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.ScanBox(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("%d records served despite always-corrupting device", len(res.Records))
	}
	stats := st.Stats()
	if got, want := uint64(stats.ChecksumFailures), inj.Counters().Corruptions; got != want {
		t.Fatalf("detected %d corruptions, injected %d", got, want)
	}
	if stats.Retries == 0 || stats.Backoff == 0 {
		t.Fatalf("corrupted reads should retry with backoff, stats %+v", stats)
	}
}

// TestSetDeviceValidation covers the device plumbing error paths: a nil or
// wrong-sized device and an unusable retry policy fail Bulkload.
func TestSetDeviceValidation(t *testing.T) {
	u := grid.MustNew(2, 3)
	c, recs, st := buildStore(t, u, "z", 100, 1, store.WithPageSize(4), store.WithFanout(4))
	_, _, other := buildStore(t, u, "z", 10, 1, store.WithPageSize(4), store.WithFanout(4))
	for name, opt := range map[string]store.Option{
		"nil device":        store.WithDevice(nil),
		"mismatched device": store.WithDevice(other.DefaultDevice()),
		"negative attempts": store.WithRetryPolicy(store.RetryPolicy{MaxAttempts: -1}),
	} {
		if _, err := store.Bulkload(c, recs, store.WithPageSize(4), store.WithFanout(4), opt); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := store.Bulkload(c, recs, store.WithPageSize(4), store.WithFanout(4),
		store.WithDevice(st.DefaultDevice()), store.WithRetryPolicy(store.RetryPolicy{MaxAttempts: 2})); err != nil {
		t.Fatal(err)
	}
}
