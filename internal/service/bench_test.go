package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/service"
)

// BenchmarkServiceRange measures sharded query throughput across shard
// counts on a zipf-skewed box workload (the shape of the benchmark's
// hot_small_* traces), with the decomposition cache on and off. The CI
// smoke step runs this at -benchtime 1x just to prove it still executes.
func BenchmarkServiceRange(b *testing.B) {
	u := grid.MustNew(2, 6)
	c := curve.NewHilbert(u)
	recs := randomRecords(u, 20_000, 42)
	rng := rand.New(rand.NewSource(99))
	boxes := make([]query.Box, 256)
	for i := range boxes {
		boxes[i] = randomBox(u, rng)
	}
	for _, shards := range []int{1, 4, 8} {
		for _, cache := range []int{-1, 1024} {
			name := fmt.Sprintf("shards=%d/cache=%d", shards, cache)
			b.Run(name, func(b *testing.B) {
				svc, err := service.New(c, recs, service.WithShards(shards), service.WithCacheSize(cache), service.WithPageSize(64))
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				ctx := context.Background()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					local := rand.New(rand.NewSource(7))
					lz := rand.NewZipf(local, 1.2, 1, 255)
					for pb.Next() {
						if _, err := svc.Range(ctx, boxes[lz.Uint64()]); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkServiceDecomposeCache isolates the cache: repeated queries for
// one hot box, so the decomposition cost is paid once and every further
// query is a pure cache hit plus shard scans.
func BenchmarkServiceDecomposeCache(b *testing.B) {
	u := grid.MustNew(2, 6)
	c := curve.NewHilbert(u)
	svc, err := service.New(c, randomRecords(u, 20_000, 42), service.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	box, err := query.NewBox(u, u.MustPoint(10, 10), u.MustPoint(30, 30))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Range(ctx, box); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceRangeStreamLarge drains one ≈10 000-record box through
// RangeStream — the server-side half of the benchmark's scan_large_stream —
// and reports what a warm drain allocates: the scan buffers come from the
// free lists, so B/op is the stream's own bookkeeping.
func BenchmarkServiceRangeStreamLarge(b *testing.B) {
	svc, _, box := largeScanFixture(b)
	want := drainCount(b, svc, box)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drainCount(b, svc, box); got != want {
			b.Fatalf("%d records, want %d", got, want)
		}
	}
}
