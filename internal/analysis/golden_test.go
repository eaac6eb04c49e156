package analysis

// Golden regression tests: exact measured values of the stretch metrics at
// reference sizes, pinned so that any accidental change to a curve or
// metric implementation is caught even if it preserves the coarse claims
// the experiments assert. Values were produced by this repository's exact
// engines and cross-checked against the paper's closed forms where those
// exist; deterministic seeds pin the randomized curves.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

func TestGoldenDAvgReferenceValues(t *testing.T) {
	cases := []struct {
		d, k int
		name string
		davg float64
		dmax float64
	}{
		// d=2, k=6 (64×64, n=4096).
		{2, 6, "z", 32.3334960938, 115.098632812},
		{2, 6, "simple", 32.5, 64},
		{2, 6, "snake", 32.5, 95},
		{2, 6, "hilbert", 38.7817382812, 142.422851562},
		{2, 6, "gray", 47.7810058594, 172.811523438},
		// d=3, k=3 (8×8×8, n=512).
		{3, 3, "z", 23.6286458333, 92.828125},
		{3, 3, "simple", 24.3333333333, 64},
		{3, 3, "snake", 24.3333333333, 88.125},
		{3, 3, "hilbert", 25.2721354167, 105},
		{3, 3, "gray", 27.1796875, 112.58984375},
	}
	for _, tc := range cases {
		u := grid.MustNew(tc.d, tc.k)
		c, err := curve.ByName(tc.name, u, 1)
		if err != nil {
			t.Fatal(err)
		}
		avg, max := core.DAvg(c, 0), core.DMax(c, 0)
		if math.Abs(avg-tc.davg) > 1e-8 {
			t.Errorf("golden Davg(%s, d=%d, k=%d) = %.12g, want %.12g", tc.name, tc.d, tc.k, avg, tc.davg)
		}
		if math.Abs(max-tc.dmax) > 1e-8 {
			t.Errorf("golden Dmax(%s, d=%d, k=%d) = %.12g, want %.12g", tc.name, tc.d, tc.k, max, tc.dmax)
		}
	}
}

func TestGoldenLambdaReferenceValues(t *testing.T) {
	// Λ_i(Z) on d=2, k=6 — also pinned by the closed form, but the golden
	// values guard the measurement path itself.
	u := grid.MustNew(2, 6)
	z := curve.NewZ(u)
	lambdas := core.Lambdas(z, 0)
	want := []uint64{174720, 87360}
	for i, w := range want {
		if lambdas[i] != w {
			t.Errorf("golden Λ_%d(Z) = %d, want %d", i+1, lambdas[i], w)
		}
	}
}

func TestGoldenAllPairsReferenceValues(t *testing.T) {
	u := grid.MustNew(2, 4) // 16×16, n=256
	cases := []struct {
		name string
		strM float64
	}{
		{"z", 8.23302189342},
		{"simple", 8.05882352941},
		{"hilbert", 8.4125407071},
	}
	for _, tc := range cases {
		c, err := curve.ByName(tc.name, u, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.AllPairsStretch(c, core.Manhattan, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.strM) > 1e-6 {
			t.Errorf("golden str_M(%s) = %.12g, want %.12g", tc.name, got, tc.strM)
		}
	}
}
