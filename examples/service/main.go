// Serving box queries from a sharded, curve-partitioned store: the service
// layer splits the key space into contiguous curve segments (one store
// shard each), routes every query to just the shards its decomposition
// touches, and reuses decompositions through an LRU cache with singleflight
// coalescing. Faulty pages degrade answers instead of failing them: the
// merged result reports exactly which curve intervals went dark.
//
// Run with: go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	u, err := grid.New(2, 7) // 128×128 key space
	if err != nil {
		log.Fatal(err)
	}
	c := curve.NewHilbert(u)

	rng := rand.New(rand.NewSource(7))
	recs := make([]store.Record, 30_000)
	for i := range recs {
		recs[i] = store.Record{
			Point:   u.MustPoint(rng.Uint32()%u.Side(), rng.Uint32()%u.Side()),
			Payload: uint64(i),
		}
	}

	// Four shards; shard 2's device loses a few pages, so queries over its
	// curve segment come back degraded rather than failing.
	svc, err := service.New(c, recs,
		service.WithShards(4),
		service.WithShardStoreOptions(func(j int) []store.Option {
			if j != 2 {
				return nil
			}
			return []store.Option{store.WithDeviceWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
				return faultio.Wrap(dev, faultio.Config{Seed: 3, LostPages: []int{0, 1, 2, 3}})
			})}
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	boxes := []query.Box{
		mustBox(u, 10, 10, 40, 40),
		mustBox(u, 60, 60, 90, 90),
		mustBox(u, 0, 0, 127, 127),
	}
	fmt.Printf("curve=%s universe=%v shards=%d records=%d\n\n", c.Name(), u, svc.Shards(), len(recs))
	for _, b := range boxes {
		res, err := svc.Range(ctx, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("box %v..%v: %d records from %d shards", b.Lo, b.Hi, len(res.Records), res.ShardsQueried)
		if !res.Complete() {
			fmt.Printf(", %d dark curve intervals %v", len(res.Unavailable), res.Unavailable)
		}
		fmt.Println()
		// Re-issuing the same box hits the decomposition cache.
		if _, err := svc.Range(ctx, b); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nmetrics:\n%s", svc.Metrics().Report())
}

func mustBox(u *grid.Universe, x0, y0, x1, y1 uint32) query.Box {
	b, err := query.NewBox(u, u.MustPoint(x0, y0), u.MustPoint(x1, y1))
	if err != nil {
		log.Fatal(err)
	}
	return b
}
