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
//     Manhattan and Euclidean metrics (§V.B).
//   - Λ_i(π): the per-dimension sums of curve distances over nearest-
//     neighbor pairs differing in dimension i (§IV.B), and S_{A′}(π), the
//     total curve distance over all ordered pairs (Lemma 2).
//
// All exact computations run in parallel over contiguous chunks of the cell
// index space with deterministic reductions (see the parallel package), so
// repeated runs yield identical values. Pass workers <= 0 to use
// GOMAXPROCS.
package core

import (
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
// over all cells. The arithmetic (Kahan-compensated per-chunk accumulation,
// chunk-ordered reduction) is specified exactly; the conformance suite
// checks it bit-for-bit against a sequential oracle. Curves with a batch
// encoder (curve.HasKernel) are swept through a sliding key window: each
// cell is encoded once and its neighbours' keys are read back from the
// window (see sweepWindow). The per-cell integer aggregates and their order
// are those of the scalar sweep, so the result is bit-identical to it (the
// conformance kernel-sweep column enforces this).
func NNStretchResult(c curve.Curve, workers int) NN {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return NN{} // a single cell has no neighbors
	}
	partial := nnScalarPartial(c)
	if curve.HasKernel(c) {
		partial = nnKernelPartial(c)
	}
	return reduceNN(parallel.MapRanges(n, workers, partial), n)
}

// nnScalarPartial is the reference chunk worker behind NNStretchResult: per
// cell a FromLinear and 1+2d Index calls. Curves without a batch encoder,
// and curve.ScalarOnly, take it.
func nnScalarPartial(c curve.Curve) func(lo, hi uint64) nnAcc {
	u := c.Universe()
	return func(lo, hi uint64) nnAcc {
		p := u.NewPoint()
		q := u.NewPoint()
		side := u.Side()
		d := u.D()
		var a nnSum
		for idx := lo; idx < hi; idx++ {
			u.FromLinear(idx, p)
			base := c.Index(p)
			var sum, max uint64
			deg := 0
			copy(q, p)
			for dim := 0; dim < d; dim++ {
				if p[dim] > 0 {
					q[dim] = p[dim] - 1
					dd := absDiff(base, c.Index(q))
					sum += dd
					if dd > max {
						max = dd
					}
					deg++
					q[dim] = p[dim]
				}
				if p[dim]+1 < side {
					q[dim] = p[dim] + 1
					dd := absDiff(base, c.Index(q))
					sum += dd
					if dd > max {
						max = dd
					}
					deg++
					q[dim] = p[dim]
				}
			}
			a.addCell(sum, max, deg)
		}
		return a.acc()
	}
}

// kahan is a Kahan-compensated running sum.
type kahan struct{ sum, c float64 }

func (k *kahan) add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// nnSum accumulates one chunk of an NN sweep — the open-grid and torus
// engines, scalar and kernelized, all fold cells through it, so the
// arithmetic the conformance oracles mirror is written once.
type nnSum struct{ avg, max kahan }

// addCell folds one cell's integer neighbor aggregates into the chunk:
// δavg = sum/deg and δmax = max. deg must be positive.
func (s *nnSum) addCell(sum, max uint64, deg int) {
	s.avg.add(float64(sum) / float64(deg))
	s.max.add(float64(max))
}

func (s *nnSum) acc() nnAcc { return nnAcc{avg: s.avg.sum, max: s.max.sum} }

// reduceNN combines the chunk totals in chunk order, compensated like the
// chunks themselves, so the worker count moves the result by at most the
// few ulps the conformance worker-sweep budget allows.
func reduceNN(parts []nnAcc, n uint64) NN {
	var avg, max kahan
	for _, a := range parts {
		avg.add(a.avg)
		max.add(a.max)
	}
	return NN{DAvg: avg.sum / float64(n), DMax: max.sum / float64(n)}
}

// absDiff returns |a − b| for curve indices.
func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}
