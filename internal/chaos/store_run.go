package chaos

import (
	"context"
	"math/rand"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/query"
	"repro/internal/store"
)

// storeRun exercises the storage substrate: bulkload a random record set,
// verify fault-free strict/degraded equivalence, then inject a random
// fault schedule and check the degraded-query and checksum invariants.
func storeRun(cfg Config, run int, rng *rand.Rand, rep *Report) error {
	u := randomUniverse(rng)
	c, err := randomCurve(rng, u)
	if err != nil {
		return err
	}
	recs := randomRecords(rng, u, rng.Intn(2000))
	geometry := []store.Option{
		store.WithPageSize(4 << rng.Intn(4)), // 4..32
		store.WithFanout(2 << rng.Intn(3)),   // 2..16
	}
	st, err := store.Bulkload(c, recs, geometry...)
	if err != nil {
		return err
	}

	// Fault-free baseline: strict and degraded scans must agree exactly.
	ctx := context.Background()
	base := randomBox(rng, u)
	st.ResetStats()
	strict, err := st.ScanBox(ctx, base, store.ScanStrict())
	if err != nil {
		rep.violate(run, "fault-free-strict", "strict scan failed on the default device: %v", err)
	}
	strictStats := st.Stats()
	st.ResetStats()
	deg, err := st.ScanBox(ctx, base)
	if err != nil {
		rep.violate(run, "zero-overhead", "degraded scan failed on the default device: %v", err)
	}
	if !deg.Complete() {
		rep.violate(run, "zero-overhead", "degraded scan reported %d dark intervals on the default device", len(deg.Unavailable))
	}
	if !sameRecords(strict.Records, deg.Records) {
		rep.violate(run, "zero-overhead", "degraded records differ from strict on the default device")
	}
	if st.Stats() != strictStats {
		rep.violate(run, "zero-overhead", "degraded stats %+v != strict stats %+v", st.Stats(), strictStats)
	}

	// The same records and geometry again, behind a random fault schedule.
	faults := faultio.Config{
		Seed:          rng.Int63(),
		TransientProb: rng.Float64() * 0.4,
		CorruptProb:   rng.Float64() * 0.3,
		SpikeProb:     rng.Float64() * 0.2,
		LostFrac:      rng.Float64() * 0.25,
	}
	var inj *faultio.Injector
	st, err = store.Bulkload(c, recs, append(geometry, store.WithDeviceWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
		var err error
		inj, err = faultio.Wrap(dev, faults)
		return inj, err
	}))...)
	if err != nil {
		return err
	}
	rep.PagesLost += len(inj.Lost())

	for q := 0; q < cfg.QueriesPerRun; q++ {
		b := randomBox(rng, u)
		res, err := st.ScanBox(ctx, b)
		if err != nil {
			return err
		}
		rep.Queries++
		rep.RecordsServed += uint64(len(res.Records))
		rep.UnavailableIntervals += uint64(len(res.Unavailable))
		checkDegraded(run, rep, c, recs, b, res)
	}

	// Checksum invariant: every injected corruption was detected.
	stats := st.Stats()
	counters := inj.Counters()
	rep.CorruptionsInjected += counters.Corruptions
	rep.CorruptionsDetected += uint64(stats.ChecksumFailures)
	rep.TransientsInjected += counters.Transients
	rep.RetriesObserved += uint64(stats.Retries)
	if uint64(stats.ChecksumFailures) != counters.Corruptions {
		rep.violate(run, "checksum-detection", "injected %d corruptions, detected %d", counters.Corruptions, stats.ChecksumFailures)
	}
	return nil
}

// checkDegraded verifies the no-loss/no-duplication and tiling invariants
// of one degraded query against the ground-truth record set.
func checkDegraded(run int, rep *Report, c curve.Curve, recs []store.Record, b query.Box, res store.ScanResult) {
	u := c.Universe()
	// Dark intervals: sorted, disjoint, nonempty, and inside the box's
	// curve footprint (every index maps to a cell of the box).
	p := u.NewPoint()
	for i, iv := range res.Unavailable {
		if iv.Lo >= iv.Hi {
			rep.violate(run, "tiling", "empty or inverted dark interval [%d, %d)", iv.Lo, iv.Hi)
			return
		}
		if i > 0 && iv.Lo <= res.Unavailable[i-1].Hi {
			rep.violate(run, "tiling", "dark intervals not sorted/disjoint: [%d,%d) after [%d,%d)",
				iv.Lo, iv.Hi, res.Unavailable[i-1].Lo, res.Unavailable[i-1].Hi)
			return
		}
		for idx := iv.Lo; idx < iv.Hi; idx++ {
			c.Point(idx, p)
			if !b.Contains(p) {
				rep.violate(run, "tiling", "dark index %d maps to %v outside the box", idx, p)
				return
			}
		}
	}
	dark := func(key uint64) bool {
		for _, iv := range res.Unavailable {
			if key >= iv.Lo && key < iv.Hi {
				return true
			}
		}
		return false
	}
	// Expected: every ground-truth record in the box whose key is served.
	var want []store.Record
	for _, r := range recs {
		if b.Contains(r.Point) && !dark(c.Index(r.Point)) {
			want = append(want, r)
		}
	}
	got := append([]store.Record(nil), res.Records...)
	for _, r := range got {
		if !b.Contains(r.Point) {
			rep.violate(run, "no-loss-no-dup", "returned record %v outside the box", r.Point)
			return
		}
		if dark(c.Index(r.Point)) {
			rep.violate(run, "tiling", "returned record %v lies in a dark interval", r.Point)
			return
		}
	}
	sortRecords(want)
	sortRecords(got)
	if !sameRecords(want, got) {
		rep.violate(run, "no-loss-no-dup", "served records mismatch: want %d records, got %d (after excluding dark intervals)",
			len(want), len(got))
	}
}
