package analysis

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// sweepCurveByName instantiates one named curve over u, seeded from cfg.
func sweepCurveByName(cfg Config, name string, u *grid.Universe) (curve.Curve, error) {
	return curve.ByName(name, u, cfg.Seed)
}

// sweepCurves instantiates every registered curve over u (the random curve
// seeded from cfg).
func sweepCurves(cfg Config, u *grid.Universe) ([]curve.Curve, error) {
	var cs []curve.Curve
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// Theorem1 measures Davg for every curve at the largest configured size per
// dimension and checks the universal lower bound
// Davg(π) ≥ (2/3d)(n^(1−1/d) − n^(−1−1/d)).
func Theorem1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "thm1",
		Title: "Universal lower bound on the average NN-stretch",
		Caption: "Davg of every implemented SFC versus the Theorem 1 bound. " +
			"ratio = Davg/bound must be ≥ 1 for every bijection; Z and simple approach 1.5, random is Θ(n/bound) worse.",
		Columns: []string{"d", "k", "n", "curve", "Davg", "Thm1 bound", "ratio", "bound holds"},
	}
	for _, d := range cfg.Dims {
		k := maxK(d, cfg.MaxExactN)
		u := grid.MustNew(d, k)
		lb := bounds.NNAvgLowerBound(d, k)
		cs, err := sweepCurves(cfg, u)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			davg := core.DAvg(c, cfg.Workers)
			ratio := davg / lb
			ok := davg >= lb-1e-9
			t.AddRow(fi(d), fi(k), fu(u.N()), c.Name(), ff(davg), ff(lb), fr(ratio), yes(ok))
			if !ok {
				return t, fmt.Errorf("%s violates Theorem 1 on %v: %v < %v", c.Name(), u, davg, lb)
			}
		}
	}
	return t, nil
}

// Lemma5 compares the measured per-dimension Z-curve sums Λ_i against both
// the exact finite-n closed form (from the proof) and the limit
// 2^(d−i)/(2^d − 1).
func Lemma5(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "lemma5",
		Title: "Per-dimension Z-curve sums Λ_i(Z)",
		Caption: "Measured Λ_i equals the closed form exactly; Λ_i/n^(2−1/d) approaches 2^(d−i)/(2^d−1) " +
			"(ratio column → 1 as k grows).",
		Columns: []string{"d", "k", "i", "Λ_i measured", "Λ_i closed form", "exact match", "Λ_i/n^(2−1/d)", "limit", "measured/limit"},
	}
	for _, d := range cfg.Dims {
		for _, k := range []int{maxK(d, cfg.MaxExactN) / 2, maxK(d, cfg.MaxExactN)} {
			if k < 1 {
				continue
			}
			u := grid.MustNew(d, k)
			z := curve.NewZ(u)
			lambdas := core.Lambdas(z, cfg.Workers)
			for idx := 1; idx <= d; idx++ {
				want := bounds.ZLambdaExact(d, k, idx)
				got := new(big.Int).SetUint64(lambdas[idx-1])
				exact := want.Cmp(got) == 0
				norm := pow(float64(u.N()), 2-1/float64(d))
				normalized := float64(lambdas[idx-1]) / norm
				limit := bounds.Lemma5Limit(d, idx)
				t.AddRow(fi(d), fi(k), fi(idx), got.String(), want.String(), yes(exact),
					ff(normalized), ff(limit), fr(normalized/limit))
				if !exact {
					return t, fmt.Errorf("Λ_%d(Z) on %v: measured %v, closed form %v", idx, u, got, want)
				}
			}
		}
	}
	return t, nil
}

// Theorem2 tracks the convergence Davg(Z)·d/n^(1−1/d) → 1 and the ratio to
// the Theorem 1 bound → 1.5.
func Theorem2(cfg Config) (*Table, error) {
	return nnConvergence(cfg, "thm2",
		"Average NN-stretch of the Z curve",
		"Davg(Z)/asymptote → 1 and Davg(Z)/bound → 1.5 as k grows (Theorem 2: the Z curve is within 1.5× of optimal, for every d).",
		func(u *grid.Universe) (curve.Curve, error) { return curve.NewZ(u), nil })
}

// Theorem3 does the same for the simple curve, additionally checking the
// exact finite-n closed form.
func Theorem3(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "thm3",
		Title: "Average NN-stretch of the simple curve",
		Caption: "Measured Davg(S) equals the boundary-subset closed form exactly, and converges to (1/d)·n^(1−1/d) " +
			"(Theorem 3: the trivial row-major curve matches the Z curve asymptotically).",
		Columns: []string{"d", "k", "n", "Davg measured", "closed form", "exact match", "asymptote", "measured/asym", "measured/bound"},
	}
	for _, d := range cfg.Dims {
		for _, k := range kSweep(d, cfg.MaxExactN) {
			u := grid.MustNew(d, k)
			s := curve.NewSimple(u)
			davgRat, _ := core.NNStretchExact(s, cfg.Workers)
			davg, _ := davgRat.Float64()
			closed := bounds.SimpleDAvgExact(d, k)
			exact := davgRat.Cmp(bounds.SimpleDAvgRat(d, k)) == 0
			asym := bounds.NNAsymptote(d, k)
			lb := bounds.NNAvgLowerBound(d, k)
			t.AddRow(fi(d), fi(k), fu(u.N()), ff(davg), ff(closed), yes(exact),
				ff(asym), fr(davg/asym), fr(davg/lb))
			if !exact {
				return t, fmt.Errorf("Davg(S) on %v: measured %v, closed form %v", u, davg, closed)
			}
		}
		// Convergence assertion at the top size.
		k := maxK(d, cfg.MaxExactN)
		ratio := bounds.SimpleDAvgExact(d, k) / bounds.NNAsymptote(d, k)
		if abs(ratio-1) > convergenceTolerance(d, k) {
			return t, fmt.Errorf("d=%d k=%d: Davg(S)/asymptote = %v, expected → 1", d, k, ratio)
		}
	}
	return t, nil
}

// nnConvergence is the shared sweep for Theorem 2-style tables.
func nnConvergence(cfg Config, id, title, caption string, build func(*grid.Universe) (curve.Curve, error)) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Caption: caption,
		Columns: []string{"d", "k", "n", "Davg", "asymptote (n^(1−1/d)/d)", "measured/asym", "Thm1 bound", "measured/bound"},
	}
	for _, d := range cfg.Dims {
		var lastRatio float64
		for _, k := range kSweep(d, cfg.MaxExactN) {
			u := grid.MustNew(d, k)
			c, err := build(u)
			if err != nil {
				return nil, err
			}
			davg := core.DAvg(c, cfg.Workers)
			asym := bounds.NNAsymptote(d, k)
			lb := bounds.NNAvgLowerBound(d, k)
			lastRatio = davg / asym
			t.AddRow(fi(d), fi(k), fu(u.N()), ff(davg), ff(asym), fr(davg/asym), ff(lb), fr(davg/lb))
			if davg < lb-1e-9 {
				return t, fmt.Errorf("d=%d k=%d: Davg %v below bound %v", d, k, davg, lb)
			}
		}
		k := maxK(d, cfg.MaxExactN)
		if abs(lastRatio-1) > convergenceTolerance(d, k) {
			return t, fmt.Errorf("d=%d k=%d: Davg/asymptote = %v, expected → 1", d, k, lastRatio)
		}
	}
	return t, nil
}

// convergenceTolerance bounds how far from its limit the finite-n ratio may
// sit at the top of the sweep. Boundary effects decay like 1/side = 2^−k,
// with a d-dependent constant; the tolerance is deliberately loose — it
// guards the *shape* (convergence), not a particular rate.
func convergenceTolerance(d, k int) float64 {
	tol := 6 * float64(d) / float64(uint64(1)<<uint(k))
	if tol < 0.02 {
		tol = 0.02
	}
	if tol > 0.5 {
		tol = 0.5
	}
	return tol
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// pow is math.Pow under a short local name for table code.
func pow(base, exp float64) float64 { return math.Pow(base, exp) }
