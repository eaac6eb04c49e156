package analysis

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// ExtIO runs the secondary-memory workload ([9]/[14] in the related work):
// a paged B+-tree over SFC keys, charged per page read, under (a) a batch
// of square box queries and (b) a neighbor-stencil sweep against a small
// LRU cache.
func ExtIO(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "ext-io",
		Title: "Secondary-memory I/O per curve (paged B+-tree)",
		Caption: "Box-query descents track the clustering metric (hilbert < z); stencil-sweep page faults track " +
			"NN-stretch (structured curves ≪ random). Two different locality properties, two different winners.",
		Columns: []string{"d", "k", "records", "curve", "box descents", "box leaf reads", "sweep faults"},
	}
	d, k := 2, 6
	records := 6000
	if cfg.Quick {
		k = 5
		records = 2000
	}
	u := grid.MustNew(d, k)
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := make([]store.Record, records)
	for i := range recs {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		recs[i] = store.Record{Point: p, Payload: uint64(i)}
	}
	type result struct{ descents, leafReads, sweepFaults int }
	results := map[string]result{}
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, cfg.Seed)
		if err != nil {
			return nil, err
		}
		st, err := store.Bulkload(c, recs, store.WithPageSize(32), store.WithFanout(16))
		if err != nil {
			return nil, err
		}
		// Batch of square box queries tiling the domain.
		step := u.Side() / 4
		for x := uint32(0); x+step <= u.Side(); x += step {
			for y := uint32(0); y+step <= u.Side(); y += step {
				b, err := query.NewBox(u, u.MustPoint(x+1, y+1), u.MustPoint(x+step-2, y+step-2))
				if err != nil {
					return nil, err
				}
				st.BoxQuery(b)
			}
		}
		boxStats := st.Stats()
		sweep, err := st.NeighborSweep(8)
		if err != nil {
			return nil, err
		}
		results[name] = result{boxStats.Descents, boxStats.LeafReads, sweep.LeafReads}
		t.AddRow(fi(d), fi(k), fi(records), name,
			fi(boxStats.Descents), fi(boxStats.LeafReads), fi(sweep.LeafReads))
	}
	if results["hilbert"].descents >= results["z"].descents {
		return t, fmt.Errorf("hilbert box descents %d not below z %d",
			results["hilbert"].descents, results["z"].descents)
	}
	for _, name := range []string{"hilbert", "z", "simple", "snake"} {
		if results[name].sweepFaults*2 > results["random"].sweepFaults {
			return t, fmt.Errorf("%s sweep faults %d not ≪ random %d",
				name, results[name].sweepFaults, results["random"].sweepFaults)
		}
	}
	return t, nil
}

// ExtDist reports the per-cell δavg distribution, exposing how each curve
// achieves its Davg: concentrated (simple/snake/diagonal) versus heavy-
// tailed (Z/Gray/Hilbert) — structure invisible to the average alone.
func ExtDist(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "ext-dist",
		Title: "Per-cell δavg distribution",
		Caption: "Quantiles of δavg over cells. Mean equals Davg (cross-checked). The row-major curves are tightly " +
			"concentrated; the hierarchical curves pay for the same mean with a heavy tail of boundary-crossing cells.",
		Columns: []string{"d", "k", "n", "curve", "mean (=Davg)", "p50", "p90", "p99", "max"},
	}
	d := 2
	k := maxK(d, cfg.MaxExactN)
	if k > 9 {
		k = 9 // distribution materializes n float64s; keep tables readable
	}
	u := grid.MustNew(d, k)
	cs, err := sweepCurves(cfg, u)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		dist, err := core.DeltaAvgDistribution(c, cfg.Workers)
		if err != nil {
			return nil, err
		}
		davg := core.DAvg(c, cfg.Workers)
		if abs(dist.Mean-davg) > 1e-9*(1+davg) {
			return t, fmt.Errorf("%s: distribution mean %v != Davg %v", c.Name(), dist.Mean, davg)
		}
		t.AddRow(fi(d), fi(k), fu(u.N()), c.Name(),
			ff(dist.Mean), ff(dist.P50), ff(dist.P90), ff(dist.P99), ff(dist.Max))
	}
	return t, nil
}
