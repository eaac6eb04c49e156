// Package core implements the paper's proximity-preservation metrics — the
// primary contribution of Xu & Tirthapura, "A Lower Bound on Proximity
// Preservation by Space Filling Curves" (IPDPS 2012).
//
// For a space filling curve π over the universe U (n cells, d dimensions):
//
//   - δavg_π(α): the average curve distance Δπ(α, β) = |π(α) − π(β)| from a
//     cell α to its nearest neighbors β ∈ N(α) (Definition 1).
//   - Davg(π): the average of δavg over all cells — the
//     "average-average nearest-neighbor stretch" (Definition 2).
//   - δmax_π(α), Dmax(π): the max-per-cell variants (Definitions 3, 4).
//   - str_avg,M(π), str_avg,E(π): the average all-pairs stretch under the
//     Manhattan and Euclidean metrics (§V.B), and S_{A′}(π), the total
//     curve distance over all ordered pairs (Lemma 2) — with the other
//     all-pairs metrics, reads of one per-offset integer table (PairTable).
//   - Λ_i(π): the per-dimension sums of curve distances over nearest-
//     neighbor pairs differing in dimension i (§IV.B).
//
// All exact computations add integers in parallel — over contiguous chunks
// of the cell index space, or over the offsets of the all-pairs table — and
// only then round, so repeated runs at any worker count yield identical values.
// Pass workers <= 0 to use GOMAXPROCS.
package core

import (
	"math/big"
	"math/bits"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/parallel"
)

// DeltaAvgAt returns δavg_π(α) (Definition 1): the mean curve distance from
// cell p to its nearest neighbors.
func DeltaAvgAt(c curve.Curve, p grid.Point) float64 {
	sum, _, deg := deltaAt(c, p, c.Universe().NewPoint())
	if deg == 0 {
		return 0
	}
	return float64(sum) / float64(deg)
}

// DeltaMaxAt returns δmax_π(α) (Definition 3): the maximum curve distance
// from cell p to a nearest neighbor.
func DeltaMaxAt(c curve.Curve, p grid.Point) uint64 {
	_, max, _ := deltaAt(c, p, c.Universe().NewPoint())
	return max
}

// deltaAt computes the per-cell neighbor aggregates behind δavg and δmax in
// one pass — the sum and max of Δπ(p, ·) over N(p), and |N(p)| — using
// caller-provided scratch q so sampled and distribution sweeps can hoist
// the allocation out of their loops.
func deltaAt(c curve.Curve, p, q grid.Point) (sum, max uint64, deg int) {
	base := c.Index(p)
	c.Universe().NeighborsInto(p, q, func(_ int, nb grid.Point) {
		dd := absDiff(base, c.Index(nb))
		sum += dd
		if dd > max {
			max = dd
		}
		deg++
	})
	return sum, max, deg
}

// NN bundles the two nearest-neighbor stretch metrics of one curve — the
// paper's Davg (Definition 2) and Dmax (Definition 4) — as a single value,
// so result plumbing never has to carry a bare (davg, dmax) pair.
type NN struct {
	DAvg float64 // average-average nearest-neighbor stretch Davg(π)
	DMax float64 // average-maximum nearest-neighbor stretch Dmax(π)
}

// DAvg returns the average-average nearest-neighbor stretch Davg(π)
// (Definition 2), computed exactly in parallel.
func DAvg(c curve.Curve, workers int) float64 {
	return NNStretchResult(c, workers).DAvg
}

// DMax returns the average-maximum nearest-neighbor stretch Dmax(π)
// (Definition 4), computed exactly in parallel.
func DMax(c curve.Curve, workers int) float64 {
	return NNStretchResult(c, workers).DMax
}

// NNStretchResult computes Davg(π) and Dmax(π) in a single parallel sweep
// over all cells. Each chunk returns integers (see nnAcc), which add
// exactly, so the result does not depend on the worker count: reduceNN
// rounds the exact rationals NNStretchExact returns to float64 once.
// Curves with a batch encoder (curve.HasKernel) are swept by a row pass
// over a sliding key window: each cell is encoded once and its neighbours'
// keys are read back from the window (see sweepWindow). Its integers are
// those of the scalar sweep, so kernel and scalar results are equal.
func NNStretchResult(c curve.Curve, workers int) NN {
	u := c.Universe()
	if u.N() == 1 {
		return NN{} // a single cell has no neighbors
	}
	return reduceNN(nnParts(c, workers), u.D(), u.N())
}

// NNStretchExact returns Davg(π) and Dmax(π) as exact rationals; their
// float64 roundings are NNStretchResult.
func NNStretchExact(c curve.Curve, workers int) (davg, dmax *big.Rat) {
	u := c.Universe()
	if u.N() == 1 {
		return new(big.Rat), new(big.Rat)
	}
	return exactNN(nnParts(c, workers), u.D(), u.N())
}

// nnParts runs the open-grid NN sweep and returns its chunk totals.
func nnParts(c curve.Curve, workers int) []nnAcc {
	partial := nnScalarPartial(c)
	if curve.HasKernel(c) {
		partial = nnKernelPartial(c, false)
	}
	return parallel.MapRanges(c.Universe().N(), workers, partial)
}

// nnScalarPartial is the reference chunk worker behind NNStretchResult.
func nnScalarPartial(c curve.Curve) func(lo, hi uint64) nnAcc {
	return scalarPartial(c, c.Universe().NeighborsInto)
}

// scalarPartial is the reference chunk worker of the NN sweeps: per cell a
// FromLinear and an Index call for the cell and for each neighbour that
// neighbors visits. Curves without a batch encoder, and curve.ScalarOnly,
// take it.
func scalarPartial(c curve.Curve, neighbors func(p, q grid.Point, visit func(int, grid.Point))) func(lo, hi uint64) nnAcc {
	u := c.Universe()
	return func(lo, hi uint64) nnAcc {
		p, q := u.NewPoint(), u.NewPoint()
		a := newNNAcc(u.D())
		var base, sum, far uint64
		var deg int
		visit := func(_ int, nb grid.Point) {
			dd := absDiff(base, c.Index(nb))
			sum, far, deg = sum+dd, max(far, dd), deg+1
		}
		for idx := lo; idx < hi; idx++ {
			u.FromLinear(idx, p)
			base, sum, far, deg = c.Index(p), 0, 0, 0
			if neighbors(p, q, visit); deg > 0 {
				a.addCell(sum, far, deg)
			}
		}
		return a
	}
}

// u128 is an unsigned 128-bit integer: a sweep's sums of curve distances
// outgrow 64 bits at n ≈ 2^31, 128 bits at no size that can be swept.
type u128 struct{ hi, lo uint64 }

func (a *u128) add(b u128) {
	var c uint64
	a.lo, c = bits.Add64(a.lo, b.lo, 0)
	a.hi += b.hi + c
}

func (a u128) big() *big.Int {
	x := new(big.Int).SetUint64(a.hi)
	return x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(a.lo))
}

func (a u128) float() float64 { return float64(a.hi)*0x1p64 + float64(a.lo) }

// nnAcc is one chunk of an NN sweep in integers. Davg is
// (1/n)·Σ_{g=d}^{2d} T_g/g, where T_g sums S(α) = Σ_{β∈N(α)} Δπ(α, β) over
// the cells of degree g, and Dmax is (1/n)·Σ δmax(α); sum[g−d] holds the
// chunk's T_g and max its Σ δmax. Every engine — open grid and torus,
// scalar and row pass — returns this struct.
type nnAcc struct {
	sum []u128
	max u128
}

func newNNAcc(d int) nnAcc { return nnAcc{sum: make([]u128, d+1)} }

// addCell folds in one cell: sum = S(α), max = δmax(α), deg = |N(α)| ∈
// [d, 2d]. S(α) ≤ 2d·(n−1) fits in 64 bits in every universe small enough
// to sweep.
func (a *nnAcc) addCell(sum, max uint64, deg int) {
	a.sum[deg-len(a.sum)+1].add(u128{lo: sum})
	a.max.add(u128{lo: max})
}

// addNN adds the chunk totals of a sweep in d dimensions.
func addNN(parts []nnAcc, d int) nnAcc {
	tot := newNNAcc(d)
	for _, p := range parts {
		for g, t := range p.sum {
			tot.sum[g].add(t)
		}
		tot.max.add(p.max)
	}
	return tot
}

// exactNN returns Davg and Dmax of a sweep over n cells in d dimensions,
// from its chunk totals, as exact rationals: with L = d·(d+1)···2d, a
// common multiple of the degrees, n·L·Davg = Σ_g T_g·(L/g).
func exactNN(parts []nnAcc, d int, n uint64) (davg, dmax *big.Rat) {
	tot := addNN(parts, d)
	l, num, w, x := big.NewInt(1), new(big.Int), new(big.Int), new(big.Int)
	for g := d; g <= 2*d; g++ {
		l.Mul(l, x.SetInt64(int64(g)))
	}
	for g, t := range tot.sum {
		w.Quo(l, x.SetInt64(int64(g+d)))
		num.Add(num, w.Mul(w, t.big()))
	}
	nb := new(big.Int).SetUint64(n)
	return new(big.Rat).SetFrac(num, l.Mul(l, nb)), new(big.Rat).SetFrac(tot.max.big(), nb)
}

// reduceNN rounds the exact Davg and Dmax of a sweep's chunk totals to
// float64, once each. n is a power of two, so dividing by it is exact:
// while Σ δmax and n·L·Davg (with L as in exactNN) stay below 2^53, one
// float division of exact operands rounds each correctly, and the reduce
// allocates nothing. Larger sums go through exactNN's big.Rats.
func reduceNN(parts []nnAcc, d int, n uint64) NN {
	const exact = 1 << 53
	tot := addNN(parts, d)
	num, l := uint64(0), uint64(1)
	for g := d; g <= 2*d && l < exact; g++ {
		l *= uint64(g)
	}
	for g, t := range tot.sum {
		hi, lo := bits.Mul64(t.lo, l/uint64(g+d))
		if num += lo; t.hi|hi != 0 || lo >= exact || num >= exact {
			l = exact
		}
	}
	if l < exact && tot.max.hi == 0 && tot.max.lo < exact {
		return NN{DAvg: float64(num) / float64(l) / float64(n), DMax: float64(tot.max.lo) / float64(n)}
	}
	davg, dmax := exactNN(parts, d, n)
	a, _ := davg.Float64()
	m, _ := dmax.Float64()
	return NN{DAvg: a, DMax: m}
}

// absDiff returns |a − b| for curve indices.
func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}
