package service_test

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
	"repro/internal/service"
	"repro/internal/store"
)

func randomRecords(u *grid.Universe, n int, seed int64) []store.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]store.Record, n)
	for i := range recs {
		p := u.NewPoint()
		for d := range p {
			p[d] = rng.Uint32() % u.Side()
		}
		recs[i] = store.Record{Point: p, Payload: uint64(i)}
	}
	return recs
}

func randomBox(u *grid.Universe, rng *rand.Rand) query.Box {
	lo, hi := u.NewPoint(), u.NewPoint()
	for d := range lo {
		a, b := rng.Uint32()%u.Side(), rng.Uint32()%u.Side()
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	b, err := query.NewBox(u, lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// TestShardedEqualsSingleStore is the core service property: for every
// curve and shard count, Range over the sharded service returns exactly the
// records — in exactly the order — a single unsharded store returns.
func TestShardedEqualsSingleStore(t *testing.T) {
	u := grid.MustNew(2, 5)
	recs := randomRecords(u, 2000, 11)
	for _, name := range []string{"hilbert", "z", "snake"} {
		c, err := curve.ByName(name, u, 1)
		if err != nil {
			t.Fatal(err)
		}
		single, err := store.Bulkload(c, recs, store.WithPageSize(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 8} {
			svc, err := service.New(c, recs, service.WithShards(shards), service.WithWorkers(4), service.WithPageSize(8))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			for q := 0; q < 40; q++ {
				b := randomBox(u, rng)
				want, err := strictBox(single, b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := svc.Range(context.Background(), b)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", name, shards, err)
				}
				if !got.Complete() {
					t.Fatalf("%s shards=%d: dark intervals with a fault-free device: %v",
						name, shards, got.Unavailable)
				}
				if len(want) == 0 && len(got.Records) == 0 {
					continue
				}
				if !reflect.DeepEqual(got.Records, want) {
					t.Fatalf("%s shards=%d query %d: sharded result diverges (%d vs %d records)",
						name, shards, q, len(got.Records), len(want))
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDegradedTiling injects lost pages into every shard and checks the
// exact-tiling contract of the merged degraded result: a record of the
// fault-free reference answer is returned iff its curve key lies outside
// every dark interval, and the dark intervals stay sorted, disjoint, and
// inside the query's curve footprint.
func TestDegradedTiling(t *testing.T) {
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	recs := randomRecords(u, 2500, 23)
	reference, err := store.Bulkload(c, recs, store.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(c, recs, service.WithShards(4), service.WithWorkers(4), service.WithPageSize(8),
		service.WithShardStoreOptions(func(j int) []store.Option {
			return []store.Option{store.WithDeviceWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
				// Deterministically kill every 4th page of shard j, offset
				// by j so each shard darkens a different stripe.
				var lost []int
				for p := j % 4; p < dev.NumPages(); p += 4 {
					lost = append(lost, p)
				}
				return faultio.Wrap(dev, faultio.Config{Seed: int64(100 + j), LostPages: lost})
			})}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rng := rand.New(rand.NewSource(5))
	sawDark := false
	for q := 0; q < 60; q++ {
		b := randomBox(u, rng)
		want, err := strictBox(reference, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Range(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		dark := got.Unavailable
		if len(dark) > 0 {
			sawDark = true
		}
		// Dark intervals: sorted, disjoint, inside the box footprint.
		foot := query.DecomposeBox(c, b)
		for i, iv := range dark {
			if iv.Lo >= iv.Hi {
				t.Fatalf("query %d: empty dark interval %v", q, iv)
			}
			if i > 0 && dark[i-1].Hi >= iv.Lo {
				t.Fatalf("query %d: dark intervals overlap or touch unmerged: %v, %v", q, dark[i-1], iv)
			}
			for k := iv.Lo; k < iv.Hi; k++ {
				if !query.IntervalsContain(foot, k) {
					t.Fatalf("query %d: dark key %d outside the box footprint", q, k)
				}
			}
		}
		// Exact tiling: reference records filtered by the dark set must
		// reproduce the degraded answer, order included.
		var filtered []store.Record
		for _, r := range want {
			if !query.IntervalsContain(dark, c.Index(r.Point)) {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) != len(got.Records) || !reflect.DeepEqual(filtered, got.Records) {
			t.Fatalf("query %d: degraded result does not tile: %d served vs %d expected",
				q, len(got.Records), len(filtered))
		}
	}
	if !sawDark {
		t.Fatal("fault schedule never darkened a query; test is vacuous")
	}
	reg := svc.Metrics()
	if reg.Counter("queries.degraded").Value() == 0 {
		t.Fatal("queries.degraded never incremented")
	}
	if reg.Counter("pages.leaf_read").Value() == 0 {
		t.Fatal("pages.leaf_read never incremented")
	}
}

// TestRouting checks that a small box only fans out to the shards whose
// curve segment intersects its decomposition.
func TestRouting(t *testing.T) {
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	svc, err := service.New(c, randomRecords(u, 1000, 3), service.WithShards(8), service.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// A single-cell box decomposes to one unit interval, owned by one shard.
	b, err := query.NewBox(u, u.MustPoint(3, 4), u.MustPoint(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Range(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsQueried != 1 {
		t.Fatalf("unit box fanned out to %d shards", res.ShardsQueried)
	}
	// The full box touches every nonempty shard.
	full, err := query.NewBox(u, u.NewPoint(), u.MustPoint(u.Side()-1, u.Side()-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err = svc.Range(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsQueried != svc.Shards() {
		t.Fatalf("full box fanned out to %d of %d shards", res.ShardsQueried, svc.Shards())
	}
}

// TestCloseSemantics: Close is idempotent, and queries after Close fail
// with the ErrShuttingDown sentinel (matched via errors.Is, not strings).
func TestCloseSemantics(t *testing.T) {
	u := grid.MustNew(2, 4)
	c := curve.NewZ(u)
	svc, err := service.New(c, randomRecords(u, 200, 9), service.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := query.NewBox(u, u.NewPoint(), u.MustPoint(u.Side()-1, u.Side()-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Range(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := svc.Range(context.Background(), b); !errors.Is(err, service.ErrShuttingDown) {
		t.Fatalf("Range after Close: err = %v, want ErrShuttingDown", err)
	}
	reg := svc.Metrics()
	if reg.Counter("queries.errors").Value() == 0 {
		t.Fatal("queries.errors not incremented by post-Close query")
	}
}

// TestContextCancellation: a canceled context fails the query with the
// context's error instead of returning a fabricated partial result.
func TestContextCancellation(t *testing.T) {
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	svc, err := service.New(c, randomRecords(u, 2000, 13), service.WithShards(4), service.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full, err := query.NewBox(u, u.NewPoint(), u.MustPoint(u.Side()-1, u.Side()-1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Range(ctx, full); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: err = %v, want context.Canceled", err)
	}
}

// TestConcurrentClients runs many goroutines querying one service (with the
// -race detector in CI) and checks the shared metrics stay consistent.
func TestConcurrentClients(t *testing.T) {
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	svc, err := service.New(c, randomRecords(u, 2000, 17), service.WithShards(4), service.WithWorkers(4), service.WithPageSize(8), service.WithCacheSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	single, err := store.Bulkload(c, randomRecords(u, 2000, 17), store.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 30
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perClient; i++ {
				b := randomBox(u, rng)
				got, err := svc.Range(context.Background(), b)
				if err != nil {
					errc <- err
					return
				}
				want, err := strictBox(single, b)
				if err != nil {
					errc <- err
					return
				}
				if len(got.Records) != len(want) {
					errc <- errors.New("concurrent result diverges from single store")
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	reg := svc.Metrics()
	if got := reg.Counter("queries.total").Value(); got != clients*perClient {
		t.Fatalf("queries.total = %d, want %d", got, clients*perClient)
	}
	hits := reg.Counter("cache.hits").Value()
	misses := reg.Counter("cache.misses").Value()
	shared := reg.Counter("coalesce.shared").Value()
	if hits+misses+shared != clients*perClient {
		t.Fatalf("cache accounting %d+%d+%d does not cover %d queries",
			hits, misses, shared, clients*perClient)
	}
}

// strictBox is the unsharded reference answer: every record inside b, or an
// error if any page is unreadable.
func strictBox(st *store.Store, b query.Box) ([]store.Record, error) {
	res, err := st.ScanBox(context.Background(), b, store.ScanStrict())
	return res.Records, err
}
