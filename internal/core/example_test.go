package core_test

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

func ExampleDAvg() {
	// Davg of the simple curve on a 4×4 grid, against its exact closed form.
	u := grid.MustNew(2, 2)
	s := curve.NewSimple(u)
	fmt.Printf("%.4f %.4f\n", core.DAvg(s, 1), bounds.SimpleDAvgExact(2, 2))
	// Output: 2.5000 2.5000
}

func ExampleNNStretchResult() {
	// The Figure 1 example curve π1: Davg = 1.5, Dmax = 2.
	u := grid.MustNew(2, 1)
	lin := func(x, y uint32) uint64 { return u.Linear(u.MustPoint(x, y)) }
	pi1, err := curve.FromOrder(u, "pi1", []uint64{lin(1, 1), lin(0, 1), lin(1, 0), lin(0, 0)})
	if err != nil {
		panic(err)
	}
	nn := core.NNStretchResult(pi1, 1)
	fmt.Println(nn.DAvg, nn.DMax)
	// Output: 1.5 2
}

func ExampleSAPrime() {
	// Lemma 2: Σ over ordered pairs of Δπ is (n−1)n(n+1)/3 for any curve.
	u := grid.MustNew(2, 1)
	z := curve.NewZ(u)
	got, err := core.SAPrime(z, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(got, core.SAPrimeIdentity(u.N()))
	// Output: 20 20
}

func ExampleLambdas() {
	// Λ_i(Z) on the 2×2 grid: 4 and 2 (matching the Lemma 5 closed form).
	u := grid.MustNew(2, 1)
	z := curve.NewZ(u)
	fmt.Println(core.Lambdas(z, 1))
	// Output: [4 2]
}

func ExampleDeltaAvgAt() {
	// δavg at a corner of the 8×8 Z curve: neighbors at keys 1 and 2.
	u := grid.MustNew(2, 3)
	z := curve.NewZ(u)
	fmt.Println(core.DeltaAvgAt(z, u.MustPoint(0, 0)))
	// Output: 1.5
}
