package repro

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// BenchmarkExperiment has one sub-benchmark per reproduced paper artifact
// (DESIGN.md per-experiment index): running it re-executes the experiment,
// verifying the paper's claim and measuring the cost of regenerating the
// corresponding table.
func BenchmarkExperiment(b *testing.B) {
	cfg := analysis.QuickConfig()
	for _, e := range analysis.Experiments() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := e.Run(cfg)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if len(tbl.Rows) == 0 {
					b.Fatalf("%s: empty table", e.ID)
				}
			}
		})
	}
}

// benchCurves is the per-curve sweep used by the throughput benchmarks.
func benchCurves(b *testing.B, u *grid.Universe) []curve.Curve {
	b.Helper()
	var cs []curve.Curve
	for _, name := range curve.Names() {
		if name == "random" && u.N() > curve.MaxRandomCells {
			continue
		}
		c, err := curve.ByName(name, u, 1)
		if err != nil {
			b.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// BenchmarkDAvg measures the exact average NN-stretch sweep (the paper's
// central quantity) across curves and sizes — the core workload behind
// Theorems 1-3.
func BenchmarkDAvg(b *testing.B) {
	for _, dk := range [][2]int{{2, 8}, {3, 5}, {4, 4}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range benchCurves(b, u) {
			b.Run(fmt.Sprintf("d=%d/k=%d/%s", dk[0], dk[1], c.Name()), func(b *testing.B) {
				b.SetBytes(int64(u.N()))
				for i := 0; i < b.N; i++ {
					sinkF = core.DAvg(c, 0)
				}
			})
		}
	}
}

// BenchmarkDAvgScaling tracks the parallel scaling of the exact sweep.
func BenchmarkDAvgScaling(b *testing.B) {
	u := grid.MustNew(2, 10)
	z := curve.NewZ(u)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(u.N()))
			for i := 0; i < b.N; i++ {
				sinkF = core.DAvg(z, workers)
			}
		})
	}
}

// BenchmarkAllPairs measures the exact all-pairs table behind
// Propositions 3-4 and the all-pairs extensions, built on one worker, one
// row per curve at the experiment harness's size n = 2^12 and d = 1, 2, 3.
func BenchmarkAllPairs(b *testing.B) {
	for _, dk := range [][2]int{{1, 12}, {2, 6}, {3, 4}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range benchCurves(b, u) {
			b.Run(fmt.Sprintf("d=%d/%s", dk[0], c.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tab, err := core.NewPairTable(c, 1)
					if err != nil {
						b.Fatal(err)
					}
					sinkF = tab.Avg(core.Manhattan)
				}
			})
		}
	}
}

// BenchmarkCurveIndex measures raw key-computation throughput per curve.
func BenchmarkCurveIndex(b *testing.B) {
	u := grid.MustNew(3, 8)
	p := u.MustPoint(123, 45, 200)
	for _, c := range benchCurves(b, u) {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkU = c.Index(p)
			}
		})
	}
}

// BenchmarkCurvePoint measures inverse-mapping throughput per curve.
func BenchmarkCurvePoint(b *testing.B) {
	u := grid.MustNew(3, 8)
	dst := u.NewPoint()
	for _, c := range benchCurves(b, u) {
		b.Run(c.Name(), func(b *testing.B) {
			mask := u.N() - 1
			for i := 0; i < b.N; i++ {
				c.Point(uint64(i)&mask, dst)
			}
		})
	}
}

// BenchmarkStratifiedEstimator measures the importance-stratified Davg
// estimator at a size where the exact sweep is impossible (n = 2^60) —
// the ablation justifying its existence next to SampledNNStretch.
func BenchmarkStratifiedEstimator(b *testing.B) {
	u := grid.MustNew(3, 20)
	for _, name := range []string{"z", "hilbert"} {
		c, err := curve.ByName(name, u, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, err := core.StratifiedNNStretch(c, 1000, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				sinkF = est.DAvg
			}
		})
	}
}

// BenchmarkExhaustiveOptimal measures the all-bijections search on the
// largest feasible universe (8 cells, 40320 permutations).
func BenchmarkExhaustiveOptimal(b *testing.B) {
	u := grid.MustNew(3, 1)
	for i := 0; i < b.N; i++ {
		opt, err := core.ExhaustiveOptimal(u)
		if err != nil {
			b.Fatal(err)
		}
		sinkF = opt.MinDAvg
	}
}

var (
	sinkF float64
	sinkU uint64
)
