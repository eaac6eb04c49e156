package conformance

import (
	"math"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// nnStretchEngine is the production parallel engine under test.
func nnStretchEngine(c curve.Curve, workers int) core.NN {
	return core.NNStretchResult(c, workers)
}

// refNNStretch is the sequential brute-force oracle for (Davg, Dmax): an
// independently-coded single-pass sweep over the cells in Linear order,
// enumerating neighbors through the grid package's callback API rather than
// the engine's inlined dimension loop. It accumulates with the same
// Kahan-compensated scheme the engine specifies, so its result must agree
// bit-for-bit with core.NNStretchResult at workers = 1 — any divergence convicts
// one of the two implementations.
func refNNStretch(c curve.Curve) (davg, dmax float64) {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return 0, 0
	}
	var sumAvg, cAvg, sumMax, cMax float64
	p := u.NewPoint()
	for idx := uint64(0); idx < n; idx++ {
		u.FromLinear(idx, p)
		base := c.Index(p)
		var sum, max uint64
		deg := 0
		u.Neighbors(p, func(_ int, q grid.Point) {
			d := absDiff(base, c.Index(q))
			sum += d
			if d > max {
				max = d
			}
			deg++
		})
		y := float64(sum)/float64(deg) - cAvg
		t := sumAvg + y
		cAvg = (t - sumAvg) - y
		sumAvg = t

		y = float64(max) - cMax
		t = sumMax + y
		cMax = (t - sumMax) - y
		sumMax = t
	}
	return sumAvg / float64(n), sumMax / float64(n)
}

// refNNStretchTorus is the sequential oracle for the periodic-boundary
// engine, mirroring core.NNStretchTorusResult's Kahan-compensated
// accumulation over a single chunk so that workers = 1 must agree
// bit-for-bit.
func refNNStretchTorus(c curve.Curve) (davg, dmax float64) {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return 0, 0
	}
	side := u.Side()
	d := u.D()
	deltas := []uint32{1}
	if side > 2 {
		deltas = append(deltas, side-1)
	}
	var sumAvg, sumMax, cAvg, cMax float64
	p := u.NewPoint()
	q := u.NewPoint()
	for idx := uint64(0); idx < n; idx++ {
		u.FromLinear(idx, p)
		base := c.Index(p)
		var sum, max uint64
		deg := 0
		copy(q, p)
		for dim := 0; dim < d; dim++ {
			for _, delta := range deltas {
				q[dim] = (p[dim] + delta) & (side - 1)
				if q[dim] == p[dim] {
					continue
				}
				dd := absDiff(base, c.Index(q))
				sum += dd
				if dd > max {
					max = dd
				}
				deg++
			}
			q[dim] = p[dim]
		}
		if deg == 0 {
			continue
		}
		y := float64(sum)/float64(deg) - cAvg
		t := sumAvg + y
		cAvg = (t - sumAvg) - y
		sumAvg = t

		y = float64(max) - cMax
		t = sumMax + y
		cMax = (t - sumMax) - y
		sumMax = t
	}
	return sumAvg / float64(n), sumMax / float64(n)
}

// absDiff returns |a − b| for curve indices.
func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}

// ulpDiff returns the distance between two non-negative floats in units in
// the last place — the number of representable float64 values strictly
// between them, plus one if they differ. Both arguments must be finite and
// ≥ 0 (every stretch metric is).
func ulpDiff(a, b float64) uint64 {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba >= bb {
		return ba - bb
	}
	return bb - ba
}
