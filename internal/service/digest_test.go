package service_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// TestDigestEqualsFoldOfScan: the streamed digest of the full universe is
// the fold of the buffered scan's records — what Digest computed when it
// materialised the range — for every shard count, and a range with a dark
// page has no digest.
func TestDigestEqualsFoldOfScan(t *testing.T) {
	u := grid.MustNew(2, 6)
	c := curve.NewHilbert(u)
	recs := randomRecords(u, 3000, 41)
	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	for _, shards := range []int{1, 4} {
		svc, err := service.New(c, recs, service.WithShards(shards), service.WithPageSize(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Scan(context.Background(), full)
		if err != nil {
			t.Fatal(err)
		}
		var want service.RangeDigest
		for _, r := range res.Records {
			want.Fold(c.Index(r.Point), r.Payload)
		}
		got, err := svc.Digest(context.Background(), full)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got.Count != uint64(len(recs)) {
			t.Fatalf("shards=%d: digest %+v, fold of the scan %+v over %d records", shards, got, want, len(recs))
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dark, err := service.New(c, recs, service.WithShards(2), service.WithPageSize(8),
		service.WithShardStoreOptions(func(int) []store.Option {
			return []store.Option{store.WithDeviceWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
				return faultio.Wrap(dev, faultio.Config{Seed: 1, LostPages: []int{1}})
			})}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer dark.Close()
	if _, err := dark.Digest(context.Background(), full); !errors.Is(err, service.ErrDigestUnavailable) {
		t.Fatalf("digest over a dark page: %v, want ErrDigestUnavailable", err)
	}
}

// digestAllocSlack bounds how much more Digest may allocate over 4N records
// than over N. A shard leg owns its cursor's batch and at most
// streamChanCap+2 recycled buffers however long it runs, and how many of
// those a short leg gets round to allocating depends on scheduling, so the
// difference is a few hundred KiB either way. Buffering the range costs a
// 32-byte store.Record per extra record before append growth: 3.8 MB at the
// sizes below.
const digestAllocSlack = 1 << 20

// TestDigestAllocationIsBounded: Digest folds the stream batch by batch, so
// the bytes it allocates do not follow the size of the range.
func TestDigestAllocationIsBounded(t *testing.T) {
	skipUnderRace(t)
	u := grid.MustNew(2, 8)
	c := curve.NewHilbert(u)
	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	const n = 40000
	digestBytes := func(records int) uint64 {
		svc, err := service.New(c, randomRecords(u, records, 7), service.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		digest := func() {
			d, err := svc.Digest(context.Background(), full)
			if err != nil {
				t.Fatal(err)
			}
			if d.Count != uint64(records) {
				t.Fatalf("digest counted %d of %d records", d.Count, records)
			}
		}
		digest() // warm: the first call grows the recycled buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		digest()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := digestBytes(n), digestBytes(4*n)
	t.Logf("Digest allocated %d bytes over %d records, %d over %d", small, n, large, 4*n)
	if large > small+digestAllocSlack {
		t.Fatalf("Digest allocated %d bytes over %d records and %d over %d: growth %d exceeds %d, the range is being buffered",
			small, n, large, 4*n, large-small, digestAllocSlack)
	}
}
