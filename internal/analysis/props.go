package analysis

import (
	"fmt"
	"math/big"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// Prop1 checks the lower bound on the average-maximum NN-stretch:
// Dmax(π) ≥ Davg(π) ≥ Theorem-1 bound, for every curve.
func Prop1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "prop1",
		Title: "Lower bound on the average-maximum NN-stretch",
		Caption: "Dmax ≥ Davg ≥ Thm1 bound (Proposition 1). The simple curve sits a full factor d above the bound " +
			"— the gap the paper's §VI lists as open.",
		Columns: []string{"d", "k", "n", "curve", "Dmax", "Davg", "Thm1 bound", "Dmax/bound", "holds"},
	}
	for _, d := range cfg.Dims {
		k := maxK(d, cfg.MaxExactN)
		u := grid.MustNew(d, k)
		lb := bounds.NNMaxLowerBound(d, k)
		cs, err := sweepCurves(cfg, u)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			nn := core.NNStretchResult(c, cfg.Workers)
			ok := nn.DMax >= nn.DAvg-1e-9 && nn.DMax >= lb-1e-9
			t.AddRow(fi(d), fi(k), fu(u.N()), c.Name(), ff(nn.DMax), ff(nn.DAvg), ff(lb), fr(nn.DMax/lb), yes(ok))
			if !ok {
				return t, fmt.Errorf("%s on %v: Dmax %v vs Davg %v vs bound %v", c.Name(), u, nn.DMax, nn.DAvg, lb)
			}
		}
	}
	return t, nil
}

// Prop2 checks the exact identity Dmax(simple) = n^(1−1/d).
func Prop2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "prop2",
		Title: "Dmax of the simple curve",
		Caption: "Every cell has a dimension-d neighbor at curve distance exactly n^(1−1/d), " +
			"so Dmax(S) = n^(1−1/d) with no asymptotics (Proposition 2).",
		Columns: []string{"d", "k", "n", "Dmax measured", "n^(1−1/d)", "equal"},
	}
	for _, d := range cfg.Dims {
		for _, k := range kSweep(d, cfg.MaxExactN) {
			u := grid.MustNew(d, k)
			s := curve.NewSimple(u)
			_, maxRat := core.NNStretchExact(s, cfg.Workers)
			max, _ := maxRat.Float64()
			want := bounds.SimpleDMaxExact(d, k)
			// n^(1−1/d) = n/s, an integer.
			ok := maxRat.Cmp(new(big.Rat).SetFrac64(int64(u.N()), int64(u.Side()))) == 0
			t.AddRow(fi(d), fi(k), fu(u.N()), ff(max), ff(want), yes(ok))
			if !ok {
				return t, fmt.Errorf("Dmax(S) on %v: %v, want %v", u, max, want)
			}
		}
	}
	return t, nil
}

// Prop3 checks the all-pairs stretch lower bounds for every curve, under
// both metrics, on the exact all-pairs table.
func Prop3(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "prop3",
		Title: "All-pairs stretch lower bounds",
		Caption: "str_avg,M ≥ (1/3d)(n+1)/(s−1) and str_avg,E ≥ (1/3√d)(n+1)/(s−1) for every SFC (Proposition 3); " +
			"exact over all pairs.",
		Columns: []string{"d", "k", "n", "curve", "str_M", "LB_M", "str_M/LB", "str_E", "LB_E", "str_E/LB", "holds"},
	}
	for _, d := range cfg.Dims {
		k := maxK(d, cfg.MaxPairsN)
		u := grid.MustNew(d, k)
		if u.N() < 2 {
			continue
		}
		lbM := bounds.AllPairsManhattanLB(d, k)
		lbE := bounds.AllPairsEuclideanLB(d, k)
		// LB_M = (n+1)/(3d(s−1)) is rational, so str_M meets it exactly.
		lbMRat := big.NewRat(int64(u.N()+1), int64(3*d*(int(u.Side())-1)))
		cs, err := sweepCurves(cfg, u)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			tab, err := core.NewPairTable(c, cfg.Workers)
			if err != nil {
				return nil, err
			}
			strMRat, err := tab.PNormRat(1)
			if err != nil {
				return nil, err
			}
			strM, strE := tab.Avg(core.Manhattan), tab.Avg(core.Euclidean)
			ok := strMRat.Cmp(lbMRat) >= 0 && strE >= lbE-1e-9
			t.AddRow(fi(d), fi(k), fu(u.N()), c.Name(),
				ff(strM), ff(lbM), fr(strM/lbM), ff(strE), ff(lbE), fr(strE/lbE), yes(ok))
			if !ok {
				return t, fmt.Errorf("%s on %v: stretch (%v, %v) below bounds (%v, %v)",
					c.Name(), u, strM, strE, lbM, lbE)
			}
		}
	}
	return t, nil
}

// Prop4 checks the simple curve's all-pairs upper bounds, including the
// pointwise Lemma 7 bounds on the worst pair.
func Prop4(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "prop4",
		Title: "All-pairs stretch of the simple curve",
		Caption: "str_avg,M(S) ≤ n^(1−1/d) and str_avg,E(S) ≤ √2·n^(1−1/d) (Proposition 4); " +
			"the max-pair columns verify Lemma 7's pointwise version.",
		Columns: []string{"d", "k", "n", "str_M", "UB_M", "max-pair_M", "str_E", "UB_E", "max-pair_E", "holds"},
	}
	for _, d := range cfg.Dims {
		k := maxK(d, cfg.MaxPairsN)
		u := grid.MustNew(d, k)
		if u.N() < 2 {
			continue
		}
		s := curve.NewSimple(u)
		tab, err := core.NewPairTable(s, cfg.Workers)
		if err != nil {
			return nil, err
		}
		strMRat, err := tab.PNormRat(1)
		if err != nil {
			return nil, err
		}
		strM, strE := tab.Avg(core.Manhattan), tab.Avg(core.Euclidean)
		maxM, maxE := tab.MaxPair(core.Manhattan), tab.MaxPair(core.Euclidean)
		ubM := bounds.SimpleAllPairsManhattanUB(d, k)
		ubE := bounds.SimpleAllPairsEuclideanUB(d, k)
		// UB_M = n^(1−1/d) = n/s is an integer: str_M meets it exactly, and
		// max-pair_M, one integer quotient rounded once, without slack too.
		// The Euclidean side is irrational.
		ubMRat := big.NewRat(int64(u.N()/uint64(u.Side())), 1)
		ok := strMRat.Cmp(ubMRat) <= 0 && strE <= ubE+1e-9 && maxM <= ubM && maxE <= ubE+1e-9
		t.AddRow(fi(d), fi(k), fu(u.N()),
			ff(strM), ff(ubM), ff(maxM), ff(strE), ff(ubE), ff(maxE), yes(ok))
		if !ok {
			return t, fmt.Errorf("simple curve on %v exceeds Prop 4/Lemma 7 bounds", u)
		}
	}
	return t, nil
}
