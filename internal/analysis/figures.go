package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// fig1Universe builds the 2×2 universe and the curves π1, π2 of Figure 1.
// The figure labels the cells A=(0,1), C=(1,1), D=(0,0), B=(1,0); π1 visits
// C,A,B,D and π2 visits A,B,C,D.
func fig1Universe() (*grid.Universe, curve.Curve, curve.Curve, error) {
	u := grid.MustNew(2, 1)
	lin := func(x, y uint32) uint64 { return u.Linear(u.MustPoint(x, y)) }
	a, b, c, d := lin(0, 1), lin(1, 0), lin(1, 1), lin(0, 0)
	pi1, err := curve.FromOrder(u, "pi1", []uint64{c, a, b, d})
	if err != nil {
		return nil, nil, nil, err
	}
	pi2, err := curve.FromOrder(u, "pi2", []uint64{a, b, c, d})
	if err != nil {
		return nil, nil, nil, err
	}
	return u, pi1, pi2, nil
}

// Fig1 reproduces the worked example of Figure 1 (§III): the stretch values
// of the two hand-drawn curves on the 2×2 grid.
func Fig1(cfg Config) (*Table, error) {
	_, pi1, pi2, err := fig1Universe()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig1",
		Title:   "Stretch of the Figure 1 example curves",
		Caption: "Paper values: Davg(π1)=1.5, Davg(π2)=2, Dmax(π1)=2, Dmax(π2)=2.5.",
		Columns: []string{"curve", "Davg measured", "Davg paper", "Dmax measured", "Dmax paper", "match"},
	}
	cases := []struct {
		c                curve.Curve
		wantAvg, wantMax float64
	}{
		{pi1, 1.5, 2.0},
		{pi2, 2.0, 2.5},
	}
	for _, tc := range cases {
		nn := core.NNStretchResult(tc.c, cfg.Workers)
		ok := math.Abs(nn.DAvg-tc.wantAvg) < 1e-12 && math.Abs(nn.DMax-tc.wantMax) < 1e-12
		t.AddRow(tc.c.Name(), ff(nn.DAvg), ff(tc.wantAvg), ff(nn.DMax), ff(tc.wantMax), yes(ok))
		if !ok {
			return t, fmt.Errorf("measured (%v, %v) != paper (%v, %v) for %s",
				nn.DAvg, nn.DMax, tc.wantAvg, tc.wantMax, tc.c.Name())
		}
	}
	return t, nil
}

// Fig2 reproduces Figure 2: the nearest-neighbor decomposition of the pair
// α=(1,1), β=(3,5), in both directions, and checks the edge sets against
// those printed in the paper.
func Fig2(cfg Config) (*Table, error) {
	alpha := grid.Point{1, 1}
	beta := grid.Point{3, 5}
	wantFwd := [][2]grid.Point{
		{{1, 1}, {2, 1}}, {{2, 1}, {3, 1}}, {{3, 1}, {3, 2}},
		{{3, 2}, {3, 3}}, {{3, 3}, {3, 4}}, {{3, 4}, {3, 5}},
	}
	wantRev := [][2]grid.Point{
		{{1, 5}, {2, 5}}, {{2, 5}, {3, 5}}, {{1, 1}, {1, 2}},
		{{1, 2}, {1, 3}}, {{1, 3}, {1, 4}}, {{1, 4}, {1, 5}},
	}
	t := &Table{
		ID:      "fig2",
		Title:   "Nearest-neighbor decomposition p(α,β) for α=(1,1), β=(3,5)",
		Caption: "Each decomposition is a set of unit edges forming a staircase path; p(α,β) ≠ p(β,α) in general (Figure 2).",
		Columns: []string{"pair", "edge count", "Δ(α,β)", "edges", "matches figure"},
	}
	check := func(label string, from, to grid.Point, want [][2]grid.Point) error {
		got := grid.Decompose(from, to)
		set := map[string]bool{}
		var render []string
		for _, e := range got {
			set[e.A.String()+e.B.String()] = true
			render = append(render, e.String())
		}
		ok := len(got) == len(want)
		for _, w := range want {
			e, err := grid.NewEdge(w[0], w[1])
			if err != nil {
				return err
			}
			if !set[e.A.String()+e.B.String()] {
				ok = false
			}
		}
		delta := grid.Manhattan(from, to)
		if uint64(len(got)) != delta {
			ok = false
		}
		t.AddRow(label, fi(len(got)), fu(delta), strings.Join(render, " "), yes(ok))
		if !ok {
			return fmt.Errorf("decomposition %s does not match Figure 2", label)
		}
		return nil
	}
	if err := check("p(α,β)", alpha, beta, wantFwd); err != nil {
		return t, err
	}
	if err := check("p(β,α)", beta, alpha, wantRev); err != nil {
		return t, err
	}
	return t, nil
}

// gridTable renders a curve's key assignment on the 8×8 grid in the layout
// of Figures 3 and 4: dimension 1 horizontal (left to right), dimension 2
// vertical (bottom to top, so the highest row prints first).
func gridTable(c curve.Curve, id, title, caption string) (*Table, error) {
	u := c.Universe()
	if err := curve.Validate(c); err != nil {
		return nil, err
	}
	cols := []string{"x2\\x1"}
	for x := uint32(0); x < u.Side(); x++ {
		cols = append(cols, fmt.Sprintf("%d", x))
	}
	t := &Table{ID: id, Title: title, Caption: caption, Columns: cols}
	for y := int(u.Side()) - 1; y >= 0; y-- {
		row := []string{fmt.Sprintf("%d", y)}
		for x := uint32(0); x < u.Side(); x++ {
			row = append(row, fu(c.Index(u.MustPoint(x, uint32(y)))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig3 reproduces Figure 3: the key assignment of the 2-d Z curve on the
// 8×8 grid, and verifies the bit-interleaving definition cell by cell.
func Fig3(cfg Config) (*Table, error) {
	u := grid.MustNew(2, 3)
	z := curve.NewZ(u)
	// Verify the interleaving definition explicitly: key = x1^j x2^j bits.
	var failure error
	u.Cells(func(_ uint64, p grid.Point) bool {
		var want uint64
		for bit := 2; bit >= 0; bit-- {
			want = want<<1 | uint64(p[0]>>uint(bit))&1
			want = want<<1 | uint64(p[1]>>uint(bit))&1
		}
		if z.Index(p) != want {
			failure = fmt.Errorf("Z(%v) = %d, interleaving gives %d", p, z.Index(p), want)
			return false
		}
		return true
	})
	if failure != nil {
		return nil, failure
	}
	return gridTable(z, "fig3",
		"Z-curve keys on the 8×8 grid",
		"Key of cell (x1,x2) is the bit interleave x1^1 x2^1 x1^2 x2^2 x1^3 x2^3; matches Figure 3 of the paper (row x2=0 at the bottom).")
}

// Fig4 reproduces Figure 4: the simple curve on the 8×8 grid, verifying
// eq. (8) cell by cell.
func Fig4(cfg Config) (*Table, error) {
	u := grid.MustNew(2, 3)
	s := curve.NewSimple(u)
	var failure error
	u.Cells(func(_ uint64, p grid.Point) bool {
		want := uint64(p[0]) + uint64(p[1])*8
		if s.Index(p) != want {
			failure = fmt.Errorf("S(%v) = %d, eq. (8) gives %d", p, s.Index(p), want)
			return false
		}
		return true
	})
	if failure != nil {
		return nil, failure
	}
	return gridTable(s, "fig4",
		"Simple-curve keys on the 8×8 grid",
		"S(α) = x1 + 8·x2 per eq. (8); matches Figure 4 of the paper.")
}

// Lemma1 property-tests the generalized triangle inequality for Δπ over
// random curves and random multi-hop paths.
func Lemma1(cfg Config) (*Table, error) {
	u := grid.MustNew(2, 3)
	rng := rand.New(rand.NewSource(cfg.Seed))
	trials := 2000
	if cfg.Quick {
		trials = 300
	}
	t := &Table{
		ID:      "lemma1",
		Title:   "Triangle inequality trials",
		Caption: "Δπ(v0,vm) ≤ Σ Δπ(vi,vi+1) on random paths; the paper's proofs rest on this inequality.",
		Columns: []string{"curve", "paths tested", "violations"},
	}
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, cfg.Seed)
		if err != nil {
			return nil, err
		}
		violations := 0
		for trial := 0; trial < trials; trial++ {
			path := make([]grid.Point, 2+rng.Intn(8))
			for j := range path {
				p := u.NewPoint()
				for i := range p {
					p[i] = uint32(rng.Intn(int(u.Side())))
				}
				path[j] = p
			}
			if !core.CheckTriangle(c, path) {
				violations++
			}
		}
		t.AddRow(name, fi(trials), fi(violations))
		if violations > 0 {
			return t, fmt.Errorf("curve %s: %d triangle violations", name, violations)
		}
	}
	return t, nil
}

// Lemma2 verifies S_A'(π) = (n−1)n(n+1)/3 for every implemented curve and
// for random bijections.
func Lemma2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "lemma2",
		Title:   "S_A'(π) identity",
		Caption: "The total curve distance over ordered pairs is curve-independent (Lemma 2).",
		Columns: []string{"d", "k", "n", "curve", "S_A' measured", "(n−1)n(n+1)/3", "equal"},
	}
	for _, dk := range [][2]int{{1, 5}, {2, 3}, {3, 2}} {
		d, k := dk[0], dk[1]
		u := grid.MustNew(d, k)
		if u.N() > cfg.MaxPairsN {
			continue
		}
		want := core.SAPrimeIdentity(u.N())
		names := append([]string{}, curve.Names()...)
		for _, name := range names {
			c, err := curve.ByName(name, u, cfg.Seed)
			if err != nil {
				return nil, err
			}
			tab, err := core.NewPairTable(c, cfg.Workers)
			if err != nil {
				return nil, err
			}
			got := tab.SAPrime()
			ok := want.IsUint64() && want.Uint64() == got
			t.AddRow(fi(d), fi(k), u2(u.N()), name, u2(got), want.String(), yes(ok))
			if !ok {
				return t, fmt.Errorf("S_A'(%s) = %d on %v, want %v", name, got, u, want)
			}
		}
	}
	return t, nil
}

// Lemma4 verifies the decomposition-count formula and its bound: every
// nearest-neighbor edge lies in at most n^((d+1)/d)/2 decompositions.
func Lemma4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "lemma4",
		Title:   "Decomposition counts per edge",
		Caption: "Max over edges of |{(α,β) : edge ∈ p(α,β)}| versus the Lemma 4 bound n^((d+1)/d)/2; the bound is tight for central edges.",
		Columns: []string{"d", "k", "n", "max count (formula)", "max count (enumerated)", "bound", "within bound", "tight"},
	}
	for _, dk := range [][2]int{{1, 3}, {2, 2}, {3, 1}} {
		d, k := dk[0], dk[1]
		uu := grid.MustNew(d, k)
		// Enumerate all ordered pairs and count containment per edge.
		counts := map[string]uint64{}
		a := uu.NewPoint()
		b := uu.NewPoint()
		for ia := uint64(0); ia < uu.N(); ia++ {
			for ib := uint64(0); ib < uu.N(); ib++ {
				if ia == ib {
					continue
				}
				uu.FromLinear(ia, a)
				uu.FromLinear(ib, b)
				for _, e := range grid.Decompose(a, b) {
					counts[e.A.String()+e.B.String()]++
				}
			}
		}
		var maxEnum, maxFormula uint64
		var mismatch error
		uu.NNPairs(func(pa, pb grid.Point, dim int) bool {
			e, err := grid.NewEdge(pa, pb)
			if err != nil {
				mismatch = err
				return false
			}
			formula := uu.DecompositionCount(e)
			enum := counts[e.A.String()+e.B.String()]
			if formula != enum {
				mismatch = fmt.Errorf("edge %v: formula %d, enumerated %d", e, formula, enum)
				return false
			}
			if enum > maxEnum {
				maxEnum = enum
			}
			if formula > maxFormula {
				maxFormula = formula
			}
			return true
		})
		if mismatch != nil {
			return t, mismatch
		}
		bound := uu.DecompositionCountBound()
		within := maxEnum <= bound
		tight := maxEnum == bound
		t.AddRow(fi(d), fi(k), u2(uu.N()), u2(maxFormula), u2(maxEnum), u2(bound), yes(within), yes(tight))
		if !within {
			return t, fmt.Errorf("d=%d k=%d: count %d exceeds bound %d", d, k, maxEnum, bound)
		}
	}
	return t, nil
}

// u2 is a local alias: some files shadow u as a variable name.
func u2(v uint64) string { return fu(v) }
