package core

import (
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/bounds"
	"repro/internal/curve"
	"repro/internal/grid"
)

// naivePairs is the all-pairs reference: a plain O(n²) loop over unordered
// cell pairs in exact rationals that shares no code with the table. Each
// cell comes from FromLinear and each Δπ from curve.Dist.
type naivePairs struct {
	mean    [5]*big.Rat // mean over pairs of (Δπ/Δ)^p under Manhattan, p = 1…4
	maxM    *big.Rat    // max Δπ/Δ under Manhattan
	dil     *big.Rat    // max Δ^d/Δπ under Manhattan
	saPrime uint64      // Σ Δπ over ordered pairs
	avgE    float64     // mean Δπ/Δ_E, in floats
	maxE    float64     // max Δπ/Δ_E, in floats
	conv    float64     // max Δ_E/Δπ^(1/d), in floats
}

func naiveAllPairs(c curve.Curve) naivePairs {
	u := c.Universe()
	n := u.N()
	p, q := u.NewPoint(), u.NewPoint()
	r := naivePairs{maxM: new(big.Rat), dil: new(big.Rat)}
	for i := range r.mean {
		r.mean[i] = new(big.Rat)
	}
	for a := uint64(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			u.FromLinear(a, p)
			u.FromLinear(b, q)
			dPi, dM := curve.Dist(c, p, q), grid.Manhattan(p, q)
			dE := grid.Euclidean(p, q)
			r.saPrime += 2 * dPi
			r.avgE += float64(dPi) / dE
			r.maxE = max(r.maxE, float64(dPi)/dE)
			r.conv = max(r.conv, dE/math.Pow(float64(dPi), 1/float64(u.D())))
			ratio := new(big.Rat).SetFrac(new(big.Int).SetUint64(dPi), new(big.Int).SetUint64(dM))
			pow := new(big.Rat).SetInt64(1)
			for i := 1; i <= 4; i++ {
				pow.Mul(pow, ratio)
				r.mean[i].Add(r.mean[i], pow)
			}
			if ratio.Cmp(r.maxM) > 0 {
				r.maxM = ratio
			}
			dd := new(big.Int).Exp(new(big.Int).SetUint64(dM), big.NewInt(int64(u.D())), nil)
			if dil := new(big.Rat).SetFrac(dd, new(big.Int).SetUint64(dPi)); dil.Cmp(r.dil) > 0 {
				r.dil = dil
			}
		}
	}
	pairs := new(big.Rat).SetInt64(int64(n * (n - 1) / 2))
	for i := 1; i <= 4; i++ {
		r.mean[i].Quo(r.mean[i], pairs)
	}
	r.avgE /= float64(n * (n - 1) / 2)
	return r
}

func mustTable(t testing.TB, c curve.Curve, workers int) *PairTable {
	t.Helper()
	tab, err := NewPairTable(c, workers)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestAllPairsStretchMatchesNaive(t *testing.T) {
	for _, dk := range [][2]int{{1, 1}, {1, 6}, {2, 1}, {2, 3}, {3, 1}, {3, 2}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range testCurves(t, u) {
			want := naiveAllPairs(c)
			tab := mustTable(t, c, 3)
			for p := 1; p <= 4; p++ {
				got, err := tab.PNormRat(p)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want.mean[p]) != 0 {
					t.Errorf("%s on %v: str_%d^%d = %v, naive %v", c.Name(), u, p, p, got, want.mean[p])
				}
			}
			if got, w := tab.Avg(Manhattan), ratFloat(want.mean[1]); got != w {
				t.Errorf("%s on %v: str_M %v, naive %v", c.Name(), u, got, w)
			}
			if got := tab.SAPrime(); got != want.saPrime {
				t.Errorf("%s on %v: S_A' %d, naive %d", c.Name(), u, got, want.saPrime)
			}
			if got, w := tab.MaxPair(Manhattan), ratFloat(want.maxM); got != w {
				t.Errorf("%s on %v: max pair %v, naive %v", c.Name(), u, got, w)
			}
			if got, w := tab.Dilation(), ratFloat(want.dil); got != w {
				t.Errorf("%s on %v: dilation %v, naive %v", c.Name(), u, got, w)
			}
			for _, f := range []struct {
				what      string
				got, want float64
			}{
				{"str_E", tab.Avg(Euclidean), want.avgE},
				{"Euclidean max pair", tab.MaxPair(Euclidean), want.maxE},
				{"converse", tab.Converse(), want.conv},
			} {
				if math.Abs(f.got-f.want) > 1e-12*f.want {
					t.Errorf("%s on %v: %s %v, naive %v", c.Name(), u, f.what, f.got, f.want)
				}
			}
		}
	}
}

func ratFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

// TestPairTableWorkerInvariance checks that every metric is bit-identical
// at every worker count. Each universe has more than 4096 offsets, so the
// pass really fans out; d = 5, k = 2 does so with n = 1024, so every curve
// runs there, and z and hilbert also run at the harness's d = 2, n = 4096.
func TestPairTableWorkerInvariance(t *testing.T) {
	u := grid.MustNew(2, 6)
	cs := append(testCurves(t, grid.MustNew(5, 2)), curve.NewZ(u), curve.NewHilbert(u))
	for _, c := range cs {
		var ref *PairTable
		var refVals []float64
		for _, w := range []int{1, 2, 3, 5, 8} {
			tab := mustTable(t, c, w)
			vals := []float64{float64(tab.SAPrime()), tab.Avg(Euclidean), tab.MaxPair(Manhattan),
				tab.MaxPair(Euclidean), tab.Converse(), tab.Dilation()}
			for p := 1; p <= 4; p++ {
				for _, m := range []Metric{Manhattan, Euclidean} {
					v, err := tab.PNorm(m, p)
					if err != nil {
						t.Fatal(err)
					}
					vals = append(vals, v)
				}
			}
			if ref == nil {
				ref, refVals = tab, vals
				continue
			}
			if !slices.Equal(tab.rows, ref.rows) {
				t.Errorf("%s on %v: workers=%d builds a different table", c.Name(), c.Universe(), w)
			}
			if !slices.Equal(vals, refVals) {
				t.Errorf("%s on %v: workers=%d gives %v, workers=1 %v", c.Name(), c.Universe(), w, vals, refVals)
			}
		}
	}
}

// TestPairRowCarries feeds one row Δπ values near the 2^15 cap, so that
// S₄ passes 2^64 (the swept sizes never get there).
func TestPairRowCarries(t *testing.T) {
	const cnt = 40
	a, b := make([]uint64, cnt), make([]uint64, cnt)
	want := [5]*big.Int{}
	for p := range want {
		want[p] = new(big.Int)
	}
	for x := range b {
		a[x] = uint64(x % 2)
		b[x] = a[x] + MaxExactPairsN - 1 - uint64(x)
		if x%3 == 0 { // the pair in the other order
			a[x], b[x] = b[x], a[x]
		}
		dd := big.NewInt(int64(MaxExactPairsN - 1 - x))
		pow := big.NewInt(1)
		for p := 1; p <= 4; p++ {
			want[p].Add(want[p], pow.Mul(pow, dd))
		}
	}
	r := pairRow{min: ^uint64(0)}
	r.addRun(a[:cnt/2], b[:cnt/2])
	r.addRun(a[cnt/2:], b[cnt/2:])
	if want[4].BitLen() <= 64 {
		t.Fatalf("S_4 = %v does not pass 2^64", want[4])
	}
	for p := 1; p <= 4; p++ {
		if got := r.sum(p).big(); got.Cmp(want[p]) != 0 {
			t.Errorf("S_%d = %v, want %v", p, got, want[p])
		}
	}
	if r.min != MaxExactPairsN-cnt || r.max != MaxExactPairsN-1 {
		t.Errorf("min, max = %d, %d, want %d, %d", r.min, r.max, MaxExactPairsN-cnt, MaxExactPairsN-1)
	}
}

func TestAllPairsStretchGuards(t *testing.T) {
	if _, err := NewPairTable(curve.NewZ(grid.MustNew(3, 6)), 1); err == nil { // 2^18 > MaxExactPairsN
		t.Fatal("oversized exact all-pairs accepted")
	}
	if _, err := NewPairTable(curve.NewZ(grid.MustNew(2, 0)), 1); err == nil {
		t.Fatal("single-cell all-pairs accepted")
	}
}

func TestProposition3LowerBounds(t *testing.T) {
	// Any SFC's all-pairs stretch respects the Proposition 3 bounds.
	for _, dk := range [][2]int{{1, 4}, {2, 3}, {3, 2}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		lbM := bounds.AllPairsManhattanLB(d, k)
		lbE := bounds.AllPairsEuclideanLB(d, k)
		for _, c := range testCurves(t, u) {
			tab := mustTable(t, c, 3)
			gotM, gotE := tab.Avg(Manhattan), tab.Avg(Euclidean)
			if gotM < lbM-1e-9 {
				t.Errorf("%s on %v: Manhattan stretch %v below bound %v", c.Name(), u, gotM, lbM)
			}
			if gotE < lbE-1e-9 {
				t.Errorf("%s on %v: Euclidean stretch %v below bound %v", c.Name(), u, gotE, lbE)
			}
			// Δ_E ≤ Δ pointwise, so the Euclidean stretch dominates.
			if gotE < gotM-1e-9 {
				t.Errorf("%s on %v: Euclidean stretch %v below Manhattan %v", c.Name(), u, gotE, gotM)
			}
		}
	}
}

func TestProposition4SimpleCurveUpperBounds(t *testing.T) {
	for _, dk := range [][2]int{{1, 4}, {2, 3}, {3, 2}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		s := curve.NewSimple(u)
		tab := mustTable(t, s, 3)
		if gotM, ub := tab.Avg(Manhattan), bounds.SimpleAllPairsManhattanUB(d, k); gotM > ub+1e-9 {
			t.Errorf("d=%d k=%d: simple Manhattan stretch %v above UB %v", d, k, gotM, ub)
		}
		if gotE, ub := tab.Avg(Euclidean), bounds.SimpleAllPairsEuclideanUB(d, k); gotE > ub+1e-9 {
			t.Errorf("d=%d k=%d: simple Euclidean stretch %v above UB %v", d, k, gotE, ub)
		}
	}
}

func TestLemma7PerPairBound(t *testing.T) {
	// Lemma 7 is pointwise: max over pairs of ΔS/Δ ≤ n^(1−1/d), and
	// ΔS/Δ_E ≤ √2·n^(1−1/d).
	for _, dk := range [][2]int{{2, 3}, {3, 2}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		s := curve.NewSimple(u)
		tab := mustTable(t, s, 2)
		if maxM, ub := tab.MaxPair(Manhattan), bounds.SimpleAllPairsManhattanUB(d, k); maxM > ub+1e-9 {
			t.Errorf("d=%d k=%d: max pair Manhattan stretch %v above %v", d, k, maxM, ub)
		}
		if maxE, ub := tab.MaxPair(Euclidean), bounds.SimpleAllPairsEuclideanUB(d, k); maxE > ub+1e-9 {
			t.Errorf("d=%d k=%d: max pair Euclidean stretch %v above %v", d, k, maxE, ub)
		}
	}
}

func TestLemma2SAPrimeIdentity(t *testing.T) {
	// S_{A'}(π) = (n−1)n(n+1)/3 for *every* bijection π.
	for _, dk := range [][2]int{{1, 4}, {2, 3}, {3, 2}} {
		u := grid.MustNew(dk[0], dk[1])
		want := SAPrimeIdentity(u.N())
		for _, c := range testCurves(t, u) {
			got := mustTable(t, c, 3).SAPrime()
			if new(big.Int).SetUint64(got).Cmp(want) != 0 {
				t.Errorf("%s on %v: S_A' = %d, want %v", c.Name(), u, got, want)
			}
		}
	}
	// Both identity implementations agree.
	if SAPrimeIdentity(4096).Cmp(bounds.SAPrimeIdentity(4096)) != 0 {
		t.Fatal("core and bounds SAPrimeIdentity disagree")
	}
}

func TestSampledAllPairsApproximatesExact(t *testing.T) {
	u := grid.MustNew(2, 4)
	z := curve.NewZ(u)
	exact := mustTable(t, z, 3).Avg(Manhattan)
	est, err := SampledAllPairsStretch(z, Manhattan, 60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 60000 || est.StdErr <= 0 {
		t.Fatalf("estimator metadata wrong: %+v", est)
	}
	if math.Abs(est.Mean-exact) > 6*est.StdErr {
		t.Fatalf("sampled %v ± %v far from exact %v", est.Mean, est.StdErr, exact)
	}
}

func TestSampledAllPairsDeterministic(t *testing.T) {
	u := grid.MustNew(3, 3)
	h := curve.NewHilbert(u)
	a, err := SampledAllPairsStretch(h, Euclidean, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampledAllPairsStretch(h, Euclidean, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %+v and %+v", a, b)
	}
}

func TestSampledAllPairsGuards(t *testing.T) {
	u := grid.MustNew(2, 0)
	if _, err := SampledAllPairsStretch(curve.NewZ(u), Manhattan, 100, 1); err == nil {
		t.Fatal("single-cell sampling accepted")
	}
	u2 := grid.MustNew(2, 2)
	if _, err := SampledAllPairsStretch(curve.NewZ(u2), Manhattan, 1, 1); err == nil {
		t.Fatal("1-sample estimate accepted")
	}
}

func TestMetricString(t *testing.T) {
	if Manhattan.String() != "manhattan" || Euclidean.String() != "euclidean" {
		t.Fatal("metric names wrong")
	}
	if Metric(9).String() == "" {
		t.Fatal("unknown metric has empty name")
	}
}
