package core

import (
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/parallel"
)

// Lambda returns Λ_dim(π) = Σ_{(α,β) ∈ G_dim} Δπ(α, β): the total curve
// distance over the unordered nearest-neighbor pairs that differ in the
// given dimension (0-based; the paper's G_{dim+1} in §IV.B). The groups
// G_1 … G_d partition NN_d.
func Lambda(c curve.Curve, dim int, workers int) uint64 {
	u := c.Universe()
	side := u.Side()
	return parallel.SumUint64Chunked(u.N(), workers, func(lo, hi uint64) uint64 {
		p := u.NewPoint()
		q := u.NewPoint()
		var s uint64
		for idx := lo; idx < hi; idx++ {
			u.FromLinear(idx, p)
			if p[dim]+1 >= side {
				continue
			}
			copy(q, p)
			q[dim] = p[dim] + 1
			s += absDiff(c.Index(p), c.Index(q))
		}
		return s
	})
}

// Lambdas returns Λ_1 … Λ_d in a single parallel sweep.
func Lambdas(c curve.Curve, workers int) []uint64 {
	u := c.Universe()
	d := u.D()
	partial := lambdasScalarPartial(c)
	if curve.HasKernel(c) {
		partial = lambdasKernelPartial(c)
	}
	total := make([]uint64, d)
	for _, part := range parallel.MapRanges(u.N(), workers, partial) {
		for i, v := range part {
			total[i] += v
		}
	}
	return total
}

// lambdasScalarPartial is the reference chunk worker behind Lambdas, one
// Index call per cell and +e_i neighbor.
func lambdasScalarPartial(c curve.Curve) func(lo, hi uint64) []uint64 {
	u := c.Universe()
	d := u.D()
	side := u.Side()
	return func(lo, hi uint64) []uint64 {
		p := u.NewPoint()
		q := u.NewPoint()
		sums := make([]uint64, d)
		for idx := lo; idx < hi; idx++ {
			u.FromLinear(idx, p)
			base := c.Index(p)
			copy(q, p)
			for dim := 0; dim < d; dim++ {
				if p[dim]+1 < side {
					q[dim] = p[dim] + 1
					sums[dim] += absDiff(base, c.Index(q))
					q[dim] = p[dim]
				}
			}
		}
		return sums
	}
}

// SumNN returns Σ_{(α,β) ∈ NN_d} Δπ(α, β) — the total curve distance over
// all unordered nearest-neighbor pairs, i.e. Σ_i Λ_i(π).
func SumNN(c curve.Curve, workers int) uint64 {
	var total uint64
	for _, v := range Lambdas(c, workers) {
		total += v
	}
	return total
}

// Lemma3Bounds returns the lower and upper bounds on Davg(π) implied by
// Lemma 3 of the paper:
//
//	(1/(n·d)) Σ_{NN_d} Δπ  ≤  Davg(π)  ≤  (2/(n·d)) Σ_{NN_d} Δπ.
func Lemma3Bounds(c curve.Curve, workers int) (lo, hi float64) {
	u := c.Universe()
	s := float64(SumNN(c, workers))
	nd := float64(u.N()) * float64(u.D())
	return s / nd, 2 * s / nd
}

// BoundaryDecomposition reports the Theorem 2 split of the Davg sum into
// the interior contribution h1 and the boundary contribution h2:
//
//	Davg(π) = (1/n)(h1 + h2)
//
// where h1 = (1/d) Σ_{NN_d} Δπ and h2 collects the excess weight
// (1/|N(α)| + 1/|N(β)| − 1/d) of pairs with at least one boundary endpoint
// (the paper's set H2). The proof of Theorem 2 shows h2/n^(2−1/d) → 0 for
// the Z curve; the harness verifies this numerically.
func BoundaryDecomposition(c curve.Curve, workers int) (h1, h2 float64) {
	u := c.Universe()
	n := u.N()
	d := float64(u.D())
	side := u.Side()
	type acc struct{ h1, h2 float64 }
	partial := func(lo, hi uint64) acc {
		p := u.NewPoint()
		q := u.NewPoint()
		var a acc
		for idx := lo; idx < hi; idx++ {
			u.FromLinear(idx, p)
			base := c.Index(p)
			degP := u.Degree(p)
			copy(q, p)
			for dim := 0; dim < u.D(); dim++ {
				if p[dim]+1 >= side {
					continue
				}
				q[dim] = p[dim] + 1
				dd := float64(absDiff(base, c.Index(q)))
				degQ := u.Degree(q)
				a.h1 += dd / d
				if degP < 2*u.D() || degQ < 2*u.D() {
					a.h2 += dd * (1/float64(degP) + 1/float64(degQ) - 1/d)
				}
				q[dim] = p[dim]
			}
		}
		return a
	}
	for _, a := range parallel.MapRanges(n, workers, partial) {
		h1 += a.h1
		h2 += a.h2
	}
	return h1, h2
}

// CheckTriangle verifies Lemma 1 (the generalized triangle inequality for
// Δπ) on an explicit vertex path: Δπ(v_0, v_m) ≤ Σ Δπ(v_i, v_{i+1}).
// It returns true when the inequality holds. (It always does — the lemma is
// a property of |·| on the integers — but the property tests exercise it on
// random curves and random paths as the paper's proofs rely on it.)
func CheckTriangle(c curve.Curve, path []grid.Point) bool {
	if len(path) < 2 {
		return true
	}
	var total uint64
	for i := 1; i < len(path); i++ {
		total += curve.Dist(c, path[i-1], path[i])
	}
	return curve.Dist(c, path[0], path[len(path)-1]) <= total
}
