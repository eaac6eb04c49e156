package core

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/curve"
	"repro/internal/grid"
)

func TestSampledNNStretchApproximatesExact(t *testing.T) {
	u := grid.MustNew(2, 6)
	z := curve.NewZ(u)
	exactAvg, exactMax := DAvg(z, 2), DMax(z, 2)
	est, err := SampledNNStretch(z, 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 40000 || est.DAvgStdErr <= 0 {
		t.Fatalf("estimator metadata wrong: %+v", est)
	}
	if math.Abs(est.DAvg-exactAvg) > 6*est.DAvgStdErr {
		t.Fatalf("sampled Davg %v ± %v vs exact %v", est.DAvg, est.DAvgStdErr, exactAvg)
	}
	// Dmax has no per-sample error bar; allow 5% relative slack.
	if math.Abs(est.DMax-exactMax) > 0.05*exactMax {
		t.Fatalf("sampled Dmax %v vs exact %v", est.DMax, exactMax)
	}
}

func TestSampledNNStretchHugeUniverse(t *testing.T) {
	// n = 2^60: far beyond any enumeration. The simple curve's per-cell
	// δavg is essentially constant, so sampling verifies the Theorem 3
	// asymptotics at this size with tiny variance.
	u := grid.MustNew(3, 20)
	s := curve.NewSimple(u)
	est, err := SampledNNStretch(s, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	asym := bounds.NNAsymptote(3, 20)
	if ratio := est.DAvg / asym; math.Abs(ratio-1) > 0.01 {
		t.Fatalf("Davg(S)/asymptote = %v at n=2^60, want ≈ 1", ratio)
	}
	if r := est.DAvg / bounds.NNAvgLowerBound(3, 20); math.Abs(r-1.5) > 0.02 {
		t.Fatalf("Davg(S)/bound = %v at n=2^60, want ≈ 1.5", r)
	}
	// The sampled estimate agrees with the exact closed form at this size.
	if closed := bounds.SimpleDAvgExact(3, 20); math.Abs(est.DAvg-closed) > 6*est.DAvgStdErr+1e-6*closed {
		t.Fatalf("sampled %v ± %v vs closed form %v", est.DAvg, est.DAvgStdErr, closed)
	}
}

func TestSampledNNStretchHeavyTailCaveat(t *testing.T) {
	// Documented behaviour: for the Z curve at large k, a uniform sample
	// underestimates Davg because the per-cell distribution is heavy-
	// tailed. This test pins the caveat down (and would flag it if the
	// estimator were ever upgraded to a stratified one).
	u := grid.MustNew(3, 20)
	z := curve.NewZ(u)
	est, err := SampledNNStretch(z, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.DAvg > bounds.NNAsymptote(3, 20) {
		t.Fatalf("uniform sampling unexpectedly reached the asymptote: %v", est.DAvg)
	}
}

func TestSampledNNStretchDeterministic(t *testing.T) {
	u := grid.MustNew(2, 8)
	h := curve.NewHilbert(u)
	a, err := SampledNNStretch(h, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampledNNStretch(h, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %+v and %+v", a, b)
	}
}

func TestSampledNNStretchGuards(t *testing.T) {
	if _, err := SampledNNStretch(curve.NewZ(grid.MustNew(2, 0)), 100, 1); err == nil {
		t.Fatal("single-cell accepted")
	}
	if _, err := SampledNNStretch(curve.NewZ(grid.MustNew(2, 3)), 1, 1); err == nil {
		t.Fatal("1 sample accepted")
	}
}

func TestStretchProfileBasics(t *testing.T) {
	u := grid.MustNew(2, 6)
	z := curve.NewZ(u)
	bins, err := StretchProfile(z, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 5 {
		t.Fatalf("only %d bins", len(bins))
	}
	if bins[0].Distance != 1 {
		t.Fatalf("first bin at distance %d", bins[0].Distance)
	}
	for i, b := range bins {
		if b.Pairs == 0 || b.MeanStretch <= 0 {
			t.Fatalf("degenerate bin %+v", b)
		}
		if i > 0 && b.Distance != bins[i-1].Distance*2 {
			t.Fatalf("bins not geometric: %v then %v", bins[i-1].Distance, b.Distance)
		}
	}
	// Scale invariance for the Z curve: every stratum is Θ(n^(1−1/d)), so
	// the first and last strata agree within a small constant factor.
	first := bins[0].MeanStretch
	last := bins[len(bins)-1].MeanStretch
	if first > 6*last || last > 6*first {
		t.Fatalf("Z profile not scale-invariant: r=1 %v, max-r %v", first, last)
	}
	// The r=1 stratum estimates the mean Δπ over NN pairs — same regime as
	// Davg.
	davg := DAvg(z, 2)
	if first < davg/3 || first > 3*davg {
		t.Fatalf("r=1 stratum %v vs Davg %v: different regime", first, davg)
	}
}

func TestStretchProfileRandomDecays(t *testing.T) {
	// For a random bijection Δπ ≈ (n+1)/3 independent of r, so the profile
	// decays like 1/r.
	u := grid.MustNew(2, 6)
	rnd, err := curve.NewRandom(u, 11)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := StretchProfile(rnd, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	first := bins[0].MeanStretch
	last := bins[len(bins)-1].MeanStretch
	if first < 10*last {
		t.Fatalf("random profile does not decay: r=1 %v, max-r %v", first, last)
	}
	// The r=1 stratum of the random curve ≈ (n+1)/3.
	if expect := (float64(u.N()) + 1) / 3; math.Abs(first-expect) > 0.1*expect {
		t.Fatalf("random r=1 stratum %v, want ≈ %v", first, expect)
	}
}

func TestStretchProfileGuards(t *testing.T) {
	if _, err := StretchProfile(curve.NewZ(grid.MustNew(2, 0)), 10, 1); err == nil {
		t.Fatal("single cell accepted")
	}
	if _, err := StretchProfile(curve.NewZ(grid.MustNew(2, 3)), 0, 1); err == nil {
		t.Fatal("0 samples accepted")
	}
}

func TestPNormStretchReducesToAllPairs(t *testing.T) {
	u := grid.MustNew(2, 3)
	for _, c := range testCurves(t, u) {
		tab := mustTable(t, c, 2)
		for _, m := range []Metric{Manhattan, Euclidean} {
			p1, err := tab.PNorm(m, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ap := tab.Avg(m); p1 != ap {
				t.Fatalf("%s %v: p=1 norm %v != all-pairs %v", c.Name(), m, p1, ap)
			}
		}
		exact, err := tab.PNormRat(1)
		if err != nil {
			t.Fatal(err)
		}
		if f, _ := exact.Float64(); f != tab.Avg(Manhattan) {
			t.Fatalf("%s: str_M %v is not its exact value %v rounded", c.Name(), tab.Avg(Manhattan), exact)
		}
	}
}

func TestPNormStretchMonotoneInP(t *testing.T) {
	// Power-mean inequality: str_p is non-decreasing in p, and bounded by
	// the max pair stretch.
	u := grid.MustNew(2, 3)
	tab := mustTable(t, curve.NewZ(u), 2)
	for _, m := range []Metric{Manhattan, Euclidean} {
		prev := 0.0
		for p := 1; p <= 4; p++ {
			v, err := tab.PNorm(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Fatalf("%v p-norm not monotone: p=%d gives %v after %v", m, p, v, prev)
			}
			prev = v
		}
		if maxPair := tab.MaxPair(m); prev > maxPair+1e-9 {
			t.Fatalf("%v p=4 norm %v exceeds max pair %v", m, prev, maxPair)
		}
	}
}

func TestPNormStretchGuards(t *testing.T) {
	if _, err := NewPairTable(curve.NewZ(grid.MustNew(3, 6)), 1); err == nil {
		t.Fatal("oversized accepted")
	}
	tab := mustTable(t, curve.NewZ(grid.MustNew(2, 2)), 1)
	for _, p := range []int{0, 5} {
		if _, err := tab.PNorm(Manhattan, p); err == nil {
			t.Fatalf("p=%d accepted", p)
		}
		if _, err := tab.PNorm(Euclidean, p); err == nil {
			t.Fatalf("Euclidean p=%d accepted", p)
		}
		if _, err := tab.PNormRat(p); err == nil {
			t.Fatalf("exact p=%d accepted", p)
		}
	}
	if _, err := NewPairTable(curve.NewZ(grid.MustNew(2, 0)), 1); err == nil {
		t.Fatal("single cell accepted")
	}
}

func TestConverseStretchHilbertVsZ(t *testing.T) {
	// Gotsman–Lindenbaum direction: Hilbert keeps spatial distance small
	// relative to index distance; the Z curve's jumps blow the ratio up.
	u := grid.MustNew(2, 4)
	hv := mustTable(t, curve.NewHilbert(u), 2).Converse()
	zv := mustTable(t, curve.NewZ(u), 2).Converse()
	if hv >= zv {
		t.Fatalf("converse stretch: hilbert %v not below z %v", hv, zv)
	}
	// Any unit-step curve has converse stretch >= 1 (consecutive cells are
	// at spatial distance 1 and index distance 1).
	if hv < 1 {
		t.Fatalf("hilbert converse stretch %v < 1", hv)
	}
}

func TestConverseStretchGuards(t *testing.T) {
	if _, err := NewPairTable(curve.NewZ(grid.MustNew(3, 6)), 1); err == nil {
		t.Fatal("oversized accepted")
	}
	if _, err := NewPairTable(curve.NewZ(grid.MustNew(2, 0)), 1); err == nil {
		t.Fatal("single cell accepted")
	}
}

func TestUnitStepDilationHilbert2D(t *testing.T) {
	// Niedermeier-Reinhardt-Sanders: for the 2-d Hilbert curve,
	// Δ ≤ 3·sqrt(|i−j|) ⇒ Δ²/|i−j| ≤ 9. Our Hilbert must respect it, and
	// the constant should exceed 4 (it is known to be ≥ 5.5 asymptotically).
	u := grid.MustNew(2, 5)
	v := mustTable(t, curve.NewHilbert(u), 2).Dilation()
	if v > 9+1e-9 {
		t.Fatalf("Hilbert dilation constant %v exceeds the NRS bound 9", v)
	}
	if v < 4 {
		t.Fatalf("Hilbert dilation constant %v suspiciously small", v)
	}
	// Snake is far worse: walking to the next row end costs Θ(side) index
	// steps for Δ=2, but in the Δ^d/|i−j| normalization its worst pairs are
	// whole-row traversals: Δ ≈ side at |i−j| ≈ side ⇒ ratio ≈ side.
	if sv := mustTable(t, curve.NewSnake(u), 2).Dilation(); sv <= v {
		t.Fatalf("snake dilation %v not worse than hilbert %v", sv, v)
	}
}

func TestUnitStepDilationGuards(t *testing.T) {
	if _, err := NewPairTable(curve.NewHilbert(grid.MustNew(3, 6)), 1); err == nil {
		t.Fatal("oversized accepted")
	}
	if _, err := NewPairTable(curve.NewHilbert(grid.MustNew(2, 0)), 1); err == nil {
		t.Fatal("single cell accepted")
	}
}
