// Command sfcstretch computes the paper's stretch metrics for one curve on
// one universe.
//
// Usage:
//
//	sfcstretch -curve z -d 2 -k 8                 # NN stretch + bounds
//	sfcstretch -curve hilbert -d 3 -k 4 -allpairs # add all-pairs stretch
//	sfcstretch -curve random -d 2 -k 6 -seed 7 -sample 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/profiling"
)

func main() {
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	var (
		name     = flag.String("curve", "z", fmt.Sprintf("curve name %v", curve.Names()))
		d        = flag.Int("d", 2, "dimensions")
		k        = flag.Int("k", 6, "log2 side length (n = 2^(d·k))")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 1, "seed for randomized curves / samplers")
		allPairs = flag.Bool("allpairs", false, "also compute the all-pairs stretch (exact when n permits)")
		samples  = flag.Int("sample", 0, "sample count for the all-pairs estimate on large universes")
		strat    = flag.Bool("stratified", false, "estimate Davg by importance-stratified sampling (works at any n)")
		profile  = flag.Bool("profile", false, "print the stretch-vs-distance profile")
		dist     = flag.Bool("dist", false, "print per-cell δavg quantiles")
		torus    = flag.Bool("torus", false, "also compute the stretch under periodic boundaries")
	)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	u, err := grid.New(*d, *k)
	if err != nil {
		fail(err)
	}
	c, err := curve.ByName(*name, u, *seed)
	if err != nil {
		fail(err)
	}

	fmt.Printf("curve=%s universe=%v\n", c.Name(), u)
	lb := bounds.NNAvgLowerBound(*d, *k)
	asym := bounds.NNAsymptote(*d, *k)
	if *strat {
		est, err := core.StratifiedNNStretch(c, 4000, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Davg (stratified, %d samples) = %.6g\n", est.Samples, est.DAvg)
		fmt.Printf("Thm1 bound      = %.6g   (Davg/bound = %.4f)\n", lb, est.DAvg/lb)
		fmt.Printf("Z/S asymptote   = %.6g   (Davg/asym  = %.4f)\n", asym, est.DAvg/asym)
		return
	}
	nn := core.NNStretchResult(c, *workers)
	fmt.Printf("Davg            = %.6g\n", nn.DAvg)
	fmt.Printf("Dmax            = %.6g\n", nn.DMax)
	fmt.Printf("Thm1 bound      = %.6g   (Davg/bound = %.4f)\n", lb, nn.DAvg/lb)
	fmt.Printf("Z/S asymptote   = %.6g   (Davg/asym  = %.4f)\n", asym, nn.DAvg/asym)
	if *torus {
		tnn := core.NNStretchTorusResult(c, *workers)
		fmt.Printf("Davg (torus)    = %.6g   (torus/open = %.4f)\n", tnn.DAvg, tnn.DAvg/nn.DAvg)
		fmt.Printf("Dmax (torus)    = %.6g\n", tnn.DMax)
	}
	if *dist {
		dd, err := core.DeltaAvgDistribution(c, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Printf("δavg quantiles  : p50=%.6g p90=%.6g p99=%.6g max=%.6g\n", dd.P50, dd.P90, dd.P99, dd.Max)
	}
	if *profile {
		bins, err := core.StretchProfile(c, 3000, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println("stretch profile (mean Δπ/Δ by pair distance r):")
		for _, b := range bins {
			fmt.Printf("  r=%-6d %.6g  (%d pairs)\n", b.Distance, b.MeanStretch, b.Pairs)
		}
	}

	if *allPairs {
		var tab *core.PairTable
		if u.N() <= core.MaxExactPairsN && *samples == 0 {
			var err error
			if tab, err = core.NewPairTable(c, *workers); err != nil {
				fail(err)
			}
		}
		for _, m := range []core.Metric{core.Manhattan, core.Euclidean} {
			if tab != nil {
				fmt.Printf("str_avg,%-9s = %.6g (exact)\n", m, tab.Avg(m))
			} else {
				n := *samples
				if n == 0 {
					n = 200_000
				}
				est, err := core.SampledAllPairsStretch(c, m, n, *seed)
				if err != nil {
					fail(err)
				}
				fmt.Printf("str_avg,%-9s = %.6g ± %.2g (sampled, %d pairs)\n", m, est.Mean, est.StdErr, est.Samples)
			}
		}
		fmt.Printf("Prop3 LB (M)    = %.6g\n", bounds.AllPairsManhattanLB(*d, *k))
		fmt.Printf("Prop3 LB (E)    = %.6g\n", bounds.AllPairsEuclideanLB(*d, *k))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sfcstretch:", err)
	os.Exit(1)
}
