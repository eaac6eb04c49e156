package service_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

func optionTestData(t *testing.T) (curve.Curve, []store.Record, []query.Box) {
	t.Helper()
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	rng := rand.New(rand.NewSource(5))
	recs := make([]store.Record, 3000)
	for i := range recs {
		recs[i] = store.Record{
			Point:   u.MustPoint(rng.Uint32()%u.Side(), rng.Uint32()%u.Side()),
			Payload: uint64(i),
		}
	}
	boxes := make([]query.Box, 8)
	for i := range boxes {
		lo := u.MustPoint(rng.Uint32()%24, rng.Uint32()%24)
		hi := u.MustPoint(lo[0]+uint32(rng.Intn(8)), lo[1]+uint32(rng.Intn(8)))
		b, err := query.NewBox(u, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		boxes[i] = b
	}
	return c, recs, boxes
}

// TestOptionsConfigureService: a service built with the full option set has
// the geometry it was asked for, records into the supplied registry, and
// answers every query exactly like an unsharded store over the same records.
func TestOptionsConfigureService(t *testing.T) {
	c, recs, boxes := optionTestData(t)
	reg := metrics.NewRegistry()
	svc, err := service.New(c, recs,
		service.WithShards(4),
		service.WithWorkers(2),
		service.WithCacheSize(16),
		service.WithPageSize(8),
		service.WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	single, err := store.Bulkload(c, recs, store.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}

	if svc.Shards() != 4 {
		t.Fatalf("shards: %d, want 4", svc.Shards())
	}
	if svc.Metrics() != reg {
		t.Fatal("WithMetrics registry not adopted")
	}
	ctx := context.Background()
	for _, b := range boxes {
		got, err := svc.Range(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.ScanBox(ctx, b, store.ScanStrict())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatal("option-built service disagrees with the unsharded store")
		}
	}
	if reg.Counter("queries.total").Value() != int64(len(boxes)) {
		t.Fatalf("metrics not routed into supplied registry: queries.total = %d",
			reg.Counter("queries.total").Value())
	}
}

// TestOptionsValidate: out-of-range options fail New instead of silently
// clamping, and a later option overrides an earlier one.
func TestOptionsValidate(t *testing.T) {
	c, recs, _ := optionTestData(t)
	for _, tc := range []struct {
		name string
		opt  service.Option
	}{
		{"shards", service.WithShards(0)},
		{"workers", service.WithWorkers(-1)},
		{"pagesize", service.WithPageSize(1)},
		{"metrics", service.WithMetrics(nil)},
		{"shardopts", service.WithShardStoreOptions(nil)},
	} {
		if _, err := service.New(c, recs, tc.opt); err == nil {
			t.Errorf("%s: invalid option accepted", tc.name)
		}
	}
	// Later options win.
	svc, err := service.New(c, recs, service.WithShards(2), service.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Shards() != 3 {
		t.Fatalf("override: %d shards, want 3", svc.Shards())
	}
}
