package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/curve"
	"repro/internal/grid"
)

// fig1Curves builds the two hand-drawn curves of Figure 1 on the 2×2 grid.
// Cell labels from the figure: A=(0,1), C=(1,1), D=(0,0), B=(1,0).
// π1 orders C,A,B,D; π2 orders A,B,C,D.
func fig1Curves(t testing.TB) (pi1, pi2 curve.Curve) {
	t.Helper()
	u := grid.MustNew(2, 1)
	lin := func(x, y uint32) uint64 { return u.Linear(u.MustPoint(x, y)) }
	a, b, c, d := lin(0, 1), lin(1, 0), lin(1, 1), lin(0, 0)
	p1, err := curve.FromOrder(u, "pi1", []uint64{c, a, b, d})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := curve.FromOrder(u, "pi2", []uint64{a, b, c, d})
	if err != nil {
		t.Fatal(err)
	}
	return p1, p2
}

func TestFigure1Values(t *testing.T) {
	// Paper §III: Davg(π1) = 1.5, Davg(π2) = 2, Dmax(π1) = 2, Dmax(π2) = 2.5.
	pi1, pi2 := fig1Curves(t)
	if got := DAvg(pi1, 1); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Davg(π1) = %v, want 1.5", got)
	}
	if got := DAvg(pi2, 1); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Davg(π2) = %v, want 2", got)
	}
	if got := DMax(pi1, 1); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Dmax(π1) = %v, want 2", got)
	}
	if got := DMax(pi2, 1); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Dmax(π2) = %v, want 2.5", got)
	}
}

func TestFigure1PerCell(t *testing.T) {
	// δavg is 1.5 at every cell of π1.
	pi1, _ := fig1Curves(t)
	u := pi1.Universe()
	u.Cells(func(_ uint64, p grid.Point) bool {
		if got := DeltaAvgAt(pi1, p); math.Abs(got-1.5) > 1e-12 {
			t.Errorf("δavg_π1(%v) = %v, want 1.5", p, got)
		}
		return true
	})
}

// bruteDAvg computes Davg by direct application of Definitions 1-2.
func bruteDAvg(c curve.Curve) float64 {
	u := c.Universe()
	var total float64
	u.Cells(func(_ uint64, p grid.Point) bool {
		total += DeltaAvgAt(c, p)
		return true
	})
	return total / float64(u.N())
}

// bruteDMax computes Dmax by direct application of Definitions 3-4.
func bruteDMax(c curve.Curve) float64 {
	u := c.Universe()
	var total float64
	u.Cells(func(_ uint64, p grid.Point) bool {
		total += float64(DeltaMaxAt(c, p))
		return true
	})
	return total / float64(u.N())
}

func testCurves(t testing.TB, u *grid.Universe) []curve.Curve {
	t.Helper()
	var cs []curve.Curve
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, 7)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func TestNNStretchMatchesBruteForce(t *testing.T) {
	for _, dk := range [][2]int{{1, 5}, {2, 3}, {3, 2}, {4, 1}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range testCurves(t, u) {
			avg, max := DAvg(c, 4), DMax(c, 4)
			if want := bruteDAvg(c); math.Abs(avg-want) > 1e-9 {
				t.Errorf("%s on %v: Davg = %v, brute %v", c.Name(), u, avg, want)
			}
			if want := bruteDMax(c); math.Abs(max-want) > 1e-9 {
				t.Errorf("%s on %v: Dmax = %v, brute %v", c.Name(), u, max, want)
			}
			if max < avg {
				t.Errorf("%s on %v: Dmax %v < Davg %v", c.Name(), u, max, avg)
			}
		}
	}
}

// TestNNStretchWorkerInvariance: the chunks return integers, so every
// worker count gives the same Davg and Dmax — open grid and torus, kernel
// and scalar sweeps, on universes large enough (n ≥ 4096) to be split.
func TestNNStretchWorkerInvariance(t *testing.T) {
	for _, g := range []struct{ d, k int }{{1, 13}, {2, 6}, {3, 4}} {
		u := grid.MustNew(g.d, g.k)
		for _, name := range curve.Names() {
			c, err := curve.ByName(name, u, 1)
			if err != nil {
				t.Fatal(err)
			}
			open, torus := NNStretchResult(c, 1), NNStretchTorusResult(c, 1)
			avg1, max1 := NNStretchExact(c, 1)
			for _, w := range []int{2, 3, 5, 8} {
				if got := NNStretchResult(c, w); got != open {
					t.Errorf("d=%d k=%d %s workers=%d: %+v, one worker %+v", g.d, g.k, name, w, got, open)
				}
				if got := NNStretchTorusResult(c, w); got != torus {
					t.Errorf("d=%d k=%d %s workers=%d: torus %+v, one worker %+v", g.d, g.k, name, w, got, torus)
				}
				if avg, max := NNStretchExact(c, w); avg.Cmp(avg1) != 0 || max.Cmp(max1) != 0 {
					t.Errorf("d=%d k=%d %s workers=%d: exact (%v, %v), one worker (%v, %v)", g.d, g.k, name, w, avg, max, avg1, max1)
				}
			}
		}
	}
}

func TestSingleCellStretchIsZero(t *testing.T) {
	u := grid.MustNew(3, 0)
	avg, max := DAvg(curve.NewZ(u), 1), DMax(curve.NewZ(u), 1)
	if avg != 0 || max != 0 {
		t.Fatalf("single cell stretch (%v, %v)", avg, max)
	}
}

func TestLambdaMatchesZClosedForm(t *testing.T) {
	// Lemma 5 proof: measured Λ_i(Z) equals the exact finite-n formula.
	for _, dk := range [][2]int{{1, 6}, {2, 4}, {3, 3}, {4, 2}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		z := curve.NewZ(u)
		lambdas := Lambdas(z, 3)
		for i := 1; i <= d; i++ {
			want := bounds.ZLambdaExact(d, k, i)
			if !want.IsUint64() || want.Uint64() != lambdas[i-1] {
				t.Errorf("d=%d k=%d: Λ_%d(Z) = %d, formula %v", d, k, i, lambdas[i-1], want)
			}
			if single := Lambda(z, i-1, 2); single != lambdas[i-1] {
				t.Errorf("Lambda(dim=%d) = %d != Lambdas[%d] = %d", i-1, single, i-1, lambdas[i-1])
			}
		}
	}
}

func TestSumNNIsLambdaTotal(t *testing.T) {
	u := grid.MustNew(3, 2)
	h := curve.NewHilbert(u)
	var want uint64
	for _, v := range Lambdas(h, 2) {
		want += v
	}
	if got := SumNN(h, 2); got != want {
		t.Fatalf("SumNN = %d, ΣΛ = %d", got, want)
	}
}

func TestLemma3BoundsSandwichDAvg(t *testing.T) {
	for _, dk := range [][2]int{{2, 3}, {3, 2}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range testCurves(t, u) {
			lo, hi := Lemma3Bounds(c, 2)
			davg := DAvg(c, 2)
			if davg < lo-1e-9 || davg > hi+1e-9 {
				t.Errorf("%s on %v: Davg %v outside Lemma 3 bounds [%v, %v]", c.Name(), u, davg, lo, hi)
			}
		}
	}
}

func TestBoundaryDecompositionReconstructsDAvg(t *testing.T) {
	// Theorem 2 proof structure: Davg = (h1 + h2)/n.
	for _, dk := range [][2]int{{2, 3}, {3, 2}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range testCurves(t, u) {
			h1, h2 := BoundaryDecomposition(c, 2)
			davg := DAvg(c, 2)
			if got := (h1 + h2) / float64(u.N()); math.Abs(got-davg) > 1e-9 {
				t.Errorf("%s on %v: (h1+h2)/n = %v, Davg = %v", c.Name(), u, got, davg)
			}
			if h2 < -1e-9 {
				t.Errorf("%s on %v: negative boundary excess h2 = %v", c.Name(), u, h2)
			}
		}
	}
}

func TestTheorem1HoldsSmall(t *testing.T) {
	// The universal lower bound must hold for every curve on every small
	// universe, including the adversarial random one.
	for _, dk := range [][2]int{{1, 4}, {2, 3}, {3, 2}, {4, 1}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		lb := bounds.NNAvgLowerBound(d, k)
		for _, c := range testCurves(t, u) {
			if davg := DAvg(c, 2); davg < lb-1e-9 {
				t.Errorf("%s on %v: Davg %v violates Theorem 1 bound %v", c.Name(), u, davg, lb)
			}
		}
	}
}

func TestTheorem1HoldsForRandomBijections(t *testing.T) {
	// Stronger: random bijections drawn as explicit tables also respect the
	// bound (the paper's SFC definition is *any* bijection).
	u := grid.MustNew(2, 2)
	lb := bounds.NNAvgLowerBound(2, 2)
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
		perm := make([]uint64, u.N())
		for i, v := range rng.Perm(int(u.N())) {
			perm[i] = uint64(v)
		}
		c := curve.MustTable(u, "rand", perm)
		if davg := DAvg(c, 1); davg < lb-1e-9 {
			t.Fatalf("trial %d: Davg %v violates bound %v", trial, davg, lb)
		}
	}
}

func TestSimpleCurveMatchesClosedForms(t *testing.T) {
	for _, dk := range [][2]int{{1, 5}, {2, 4}, {3, 2}, {4, 1}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		s := curve.NewSimple(u)
		avg, max := DAvg(s, 3), DMax(s, 3)
		if want := bounds.SimpleDAvgExact(d, k); avg != want {
			t.Errorf("d=%d k=%d: Davg(S) = %v, closed form %v", d, k, avg, want)
		}
		if want := bounds.SimpleDMaxExact(d, k); max != want {
			t.Errorf("d=%d k=%d: Dmax(S) = %v, closed form %v (Prop 2)", d, k, max, want)
		}
		if got, _ := NNStretchExact(s, 3); got.Cmp(bounds.SimpleDAvgRat(d, k)) != 0 {
			t.Errorf("d=%d k=%d: exact Davg(S) = %v, closed form %v", d, k, got, bounds.SimpleDAvgRat(d, k))
		}
	}
}

func TestStretchInvariantUnderIsometries(t *testing.T) {
	// Davg and Dmax are defined from |π(α)−π(β)| over the neighbor relation,
	// so grid isometries (axis permutation, reflection) and index reversal
	// leave them unchanged.
	u := grid.MustNew(3, 2)
	base := curve.NewZ(u)
	avg0, max0 := DAvg(base, 2), DMax(base, 2)
	perm, err := curve.NewAxisPermuted(base, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []curve.Curve{
		perm,
		curve.NewReflected(base, 0b111),
		curve.NewReversed(base),
	} {
		avg, max := DAvg(c, 2), DMax(c, 2)
		if avg != avg0 || max != max0 {
			t.Errorf("%s: stretch (%v,%v) != base (%v,%v)", c.Name(), avg, max, avg0, max0)
		}
	}
}

func TestCheckTriangleProperty(t *testing.T) {
	// Lemma 1 on random paths over random curves.
	u := grid.MustNew(2, 3)
	rng := rand.New(rand.NewSource(11))
	for _, c := range testCurves(t, u) {
		for trial := 0; trial < 100; trial++ {
			pathLen := 2 + rng.Intn(6)
			path := make([]grid.Point, pathLen)
			for i := range path {
				p := u.NewPoint()
				for j := range p {
					p[j] = uint32(rng.Intn(int(u.Side())))
				}
				path[i] = p
			}
			if !CheckTriangle(c, path) {
				t.Fatalf("%s: triangle inequality violated on %v", c.Name(), path)
			}
		}
	}
	if !CheckTriangle(curve.NewZ(u), nil) {
		t.Fatal("empty path must satisfy the inequality")
	}
}
