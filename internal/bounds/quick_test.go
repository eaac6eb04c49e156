package bounds_test

// Cross-module property tests: the closed forms in the bounds package are
// re-derived here against brute-force measurement through the core engines,
// over quick-generated universe shapes.

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// shape decodes two raw quick-generated bytes into a small (d, k) pair.
func shape(a, b uint8) (d, k int) {
	d = 1 + int(a)%4
	k = 1 + int(b)%3
	if d*k > 12 {
		k = 12 / d
	}
	return d, k
}

func TestQuickSimpleDAvgClosedForm(t *testing.T) {
	f := func(a, b uint8) bool {
		d, k := shape(a, b)
		u := grid.MustNew(d, k)
		measured := core.DAvg(curve.NewSimple(u), 1)
		closed := bounds.SimpleDAvgExact(d, k)
		return math.Abs(measured-closed) < 1e-9*(1+closed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSimpleDMaxClosedForm(t *testing.T) {
	f := func(a, b uint8) bool {
		d, k := shape(a, b)
		u := grid.MustNew(d, k)
		measured := core.DMax(curve.NewSimple(u), 1)
		return math.Abs(measured-bounds.SimpleDMaxExact(d, k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickZLambdaClosedForm(t *testing.T) {
	f := func(a, b uint8) bool {
		d, k := shape(a, b)
		u := grid.MustNew(d, k)
		lambdas := core.Lambdas(curve.NewZ(u), 1)
		for i := 1; i <= d; i++ {
			want := bounds.ZLambdaExact(d, k, i)
			if new(big.Int).SetUint64(lambdas[i-1]).Cmp(want) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTheorem1UniversalOverShapesAndSeeds(t *testing.T) {
	// The headline property test: for quick-generated (d, k, seed), the
	// random bijection respects the Theorem 1 bound.
	f := func(a, b uint8, seed int64) bool {
		d, k := shape(a, b)
		u := grid.MustNew(d, k)
		c, err := curve.NewRandom(u, seed)
		if err != nil {
			return false
		}
		return core.DAvg(c, 1) >= bounds.NNAvgLowerBound(d, k)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLemma2OverShapesAndSeeds(t *testing.T) {
	f := func(a, b uint8, seed int64) bool {
		d, k := shape(a, b)
		u := grid.MustNew(d, k)
		if u.N() > 1<<10 {
			return true // keep the O(n²) check fast
		}
		c, err := curve.NewRandom(u, seed)
		if err != nil {
			return false
		}
		tab, err := core.NewPairTable(c, 1)
		if err != nil {
			return false
		}
		want := bounds.SAPrimeIdentity(u.N())
		return want.IsUint64() && want.Uint64() == tab.SAPrime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
