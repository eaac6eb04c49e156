package core

import (
	"repro/internal/curve"
	"repro/internal/parallel"
)

// NNStretchTorus computes Davg and Dmax under *periodic* boundary
// conditions: every cell has exactly 2d neighbors, with coordinates
// wrapping modulo the side length.
//
// The paper's model (§III) is the open grid; periodic domains are the norm
// in N-body and PDE codes, so this ablation quantifies what the wraparound
// costs. Wrap pairs connect opposite faces, which sit maximally far apart
// on every key-ordered curve — there are only d·n/s of them, but each costs
// Θ(n), adding a Θ(n^(1−1/d)) term of its own. The harness (ext-torus)
// shows the structured curves keep the same asymptotic order with a larger
// constant, while the paper's lower bound — proved for the open grid —
// still holds a fortiori (the periodic neighbor set contains the open one,
// and wrap distances only add weight).
func NNStretchTorus(c curve.Curve, workers int) (davg, dmax float64) {
	r := NNStretchTorusResult(c, workers)
	return r.DAvg, r.DMax
}

// NNStretchTorusResult is NNStretchTorus returning a core.NN instead of a
// bare pair. NNStretchTorus delegates to it; internal callers should prefer
// this form.
func NNStretchTorusResult(c curve.Curve, workers int) NN {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return NN{}
	}
	partial := nnTorusScalarPartial(c)
	if curve.HasKernel(c) {
		partial = nnKernelPartial(c, true)
	}
	return reduceNN(parallel.MapRanges(n, workers, partial), u.D(), n)
}

// nnTorusScalarPartial is the reference chunk worker behind
// NNStretchTorusResult. NeighborsTorusInto applies the simple-graph
// convention: on a 2-cycle the +1 and −1 neighbors coincide and are counted
// once, on a 1-cycle the cell has no neighbors.
func nnTorusScalarPartial(c curve.Curve) func(lo, hi uint64) nnAcc {
	return scalarPartial(c, c.Universe().NeighborsTorusInto)
}
