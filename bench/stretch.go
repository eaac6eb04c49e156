package main

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// sweep is one curve over one grid, the argument of one engine call; a pass
// of stretch_sweep makes one call per sweep.
type sweep struct {
	c    curve.Curve
	d, k int
}

func (s sweep) String() string { return fmt.Sprintf("%s d=%d k=%d", s.c.Name(), s.d, s.k) }

// newSweeps builds the curves of one pass.
func newSweeps(cfg config) ([]sweep, error) {
	var out []sweep
	for _, g := range cfg.grids {
		u, err := grid.New(g[0], g[1])
		if err != nil {
			return nil, err
		}
		for _, name := range sweepCurves {
			c, err := curve.ByName(name, u, cfg.seed)
			if err != nil {
				return nil, err
			}
			out = append(out, sweep{c: c, d: g[0], k: g[1]})
		}
	}
	return out, nil
}

// checkSweep holds one result of the engine against what is known of it
// without running it: the closed forms for simple, and the paper's
// Theorem 1 lower bound for every curve.
func checkSweep(s sweep, nn core.NN) error {
	if lb := bounds.NNAvgLowerBound(s.d, s.k); nn.DAvg < lb {
		return fmt.Errorf("%v: Davg %g below the Theorem 1 bound %g", s, nn.DAvg, lb)
	}
	if s.c.Name() == "simple" {
		near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
		if want := bounds.SimpleDAvgExact(s.d, s.k); !near(nn.DAvg, want) {
			return fmt.Errorf("%v: Davg %g, closed form %g", s, nn.DAvg, want)
		}
		if want := bounds.SimpleDMaxExact(s.d, s.k); !near(nn.DMax, want) {
			return fmt.Errorf("%v: Dmax %g, closed form %g", s, nn.DMax, want)
		}
	}
	return nil
}

// checkEngine runs the checks that need sweeps of their own, outside the
// timed passes: Z's total neighbour distance against its closed form on
// every grid, and the batch kernels against the scalar path at k=7.
func checkEngine(sweeps []sweep, cfg config) error {
	for _, s := range sweeps {
		if s.c.Name() != "z" {
			continue
		}
		got := new(big.Int).SetUint64(core.SumNN(s.c, cfg.clients))
		if want := bounds.ZSumNNExact(s.d, s.k); got.Cmp(want) != 0 {
			return fmt.Errorf("%v: SumNN %v, closed form %v", s, got, want)
		}
	}
	u, err := grid.New(2, min(7, cfg.grids[0][1]))
	if err != nil {
		return err
	}
	for _, name := range sweepCurves {
		c, err := curve.ByName(name, u, cfg.seed)
		if err != nil {
			return err
		}
		if k, sc := core.NNStretchResult(c, cfg.clients), core.NNStretchResult(curve.ScalarOnly(c), cfg.clients); k != sc {
			return fmt.Errorf("%s: kernel sweep %v, scalar sweep %v", name, k, sc)
		}
	}
	return nil
}

// runSweep is stretch_sweep's untraced run. Set-up is building the curves
// and one untimed pass over them, which pays for first-touch of the
// kernels' tables and the worker start; one operation is one cell swept.
func runSweep(spec workloadSpec, cfg config) (*result, error) {
	passes := cfg.opCount(spec)
	var sweeps []sweep
	var setups []float64
	var first []core.NN // each sweep's result, which every timed sweep must repeat
	for range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		var err error
		if sweeps, err = newSweeps(cfg); err != nil {
			return nil, err
		}
		first = first[:0]
		for _, s := range sweeps {
			first = append(first, core.NNStretchResult(s.c, cfg.clients))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var cells int
	for _, s := range sweeps {
		cells += int(s.c.Universe().N())
	}
	res := newResult(spec, cfg, false, passes*cells)
	res.Provenance.Records = 0
	if err := checkEngine(sweeps, cfg); err != nil {
		res.wrong("engine: %v", err)
	}

	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	// The seed orders the sweeps within each pass; the grids and curves
	// are the workload and do not change with it.
	r := newRNG(cfg.seed, 4)
	order := make([]int, len(sweeps))
	for i := range order {
		order[i] = i
	}
	lat := make([]int64, 0, passes)
	start := time.Now()
	for range passes {
		for i := len(order) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		t0 := time.Now()
		for _, i := range order {
			nn := core.NNStretchResult(sweeps[i].c, cfg.clients)
			n := int(sweeps[i].c.Universe().N())
			res.Attempted += n
			err := checkSweep(sweeps[i], nn)
			if err == nil && nn != first[i] {
				err = fmt.Errorf("%v: %v, set-up pass gave %v", sweeps[i], nn, first[i])
			}
			if err != nil {
				res.Failed += n
				res.wrong("timed pass: %v", err)
			}
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	wall := time.Since(start)
	rss, haveRSS := peakRSSMiB()
	res.set(endToEnd, "setup_s", median(setups), setupRepeats)
	res.set(endToEnd, "ops_per_s", float64(res.Attempted-res.Failed)/wall.Seconds(), res.Attempted-res.Failed)
	// The latency a user of the engine sees is that of one pass, the whole
	// table of curves and grids; single sweeps differ tenfold by curve, so
	// their median would sit on the edge between two curves. A pass hands
	// its results over when it returns: time to first result is the same.
	res.set(endToEnd, "lat_p50_us", quantileUS(lat, 0.50), len(lat))
	res.set(endToEnd, "lat_p99_us", quantileUS(lat, 0.99), len(lat))
	res.set(endToEnd, "ttfb_p50_us", quantileUS(lat, 0.50), len(lat))
	if haveRSS {
		res.set(endToEnd, "peak_rss_mb", rss, 0)
	}
	res.set(endToEnd, "fail_rate", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	return res, nil
}
