package conformance

import (
	"math/big"
	"math/bits"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// The sequential oracles below share no code with the engines: they
// enumerate neighbours their own way and reduce in their own integers.
// A cell α contributes S(α)/|N(α)| to n·Davg, where S(α) is its summed
// neighbour distance and |N(α)| ∈ [d, 2d], so with L = lcm(d…2d)
// n·L·Davg = Σ_α S(α)·(L/|N(α)|) is an integer; the oracles add it, and
// n·Dmax = Σ_α δmax(α), in 128 bits and divide once.

// oracleSum is an oracle's 128-bit accumulator.
type oracleSum struct{ hi, lo uint64 }

// addMul adds x·y.
func (s *oracleSum) addMul(x, y uint64) {
	hi, lo := bits.Mul64(x, y)
	var c uint64
	s.lo, c = bits.Add64(s.lo, lo, 0)
	s.hi += hi + c
}

// over returns the sum divided by den.
func (s oracleSum) over(den uint64) *big.Rat {
	num := new(big.Int).SetUint64(s.hi)
	num.Lsh(num, 64).Add(num, new(big.Int).SetUint64(s.lo))
	return new(big.Rat).SetFrac(num, new(big.Int).SetUint64(den))
}

// degreeLCM returns lcm(d…2d), and false when it, or n times it, does not
// fit in 64 bits.
func degreeLCM(d int, n uint64) (uint64, bool) {
	l := uint64(1)
	for g := uint64(d); g <= uint64(2*d); g++ {
		a, b := l, g
		for b != 0 {
			a, b = b, a%b
		}
		hi, lo := bits.Mul64(l/a, g)
		if hi != 0 {
			return 0, false
		}
		l = lo
	}
	hi, _ := bits.Mul64(l, n)
	return l, hi == 0
}

// refStretch is the sequential brute-force oracle for (Davg, Dmax): a
// single pass over the cells in Linear order that calls neighbors to visit
// each cell's neighbours, returning both metrics as exact rationals. ok is
// false when lcm(d…2d)·n does not fit in 64 bits.
func refStretch(c curve.Curve, neighbors func(p, q grid.Point, visit func(grid.Point))) (davg, dmax *big.Rat, ok bool) {
	u := c.Universe()
	n := u.N()
	if n == 1 {
		return new(big.Rat), new(big.Rat), true
	}
	l, ok := degreeLCM(u.D(), n)
	if !ok {
		return nil, nil, false
	}
	var avg, mx oracleSum
	p, q := u.NewPoint(), u.NewPoint()
	for idx := uint64(0); idx < n; idx++ {
		u.FromLinear(idx, p)
		base := c.Index(p)
		var sum, far, deg uint64
		neighbors(p, q, func(nb grid.Point) {
			d := absDiff(base, c.Index(nb))
			sum, far, deg = sum+d, max(far, d), deg+1
		})
		if deg > 0 {
			avg.addMul(sum, l/deg)
			mx.addMul(far, 1)
		}
	}
	return avg.over(n * l), mx.over(n), true
}

// refNNStretch is the oracle for the open-grid engine: it enumerates
// neighbours through the grid package's callback API rather than the
// engine's row pass.
func refNNStretch(c curve.Curve) (davg, dmax *big.Rat, ok bool) {
	u := c.Universe()
	return refStretch(c, func(p, _ grid.Point, visit func(grid.Point)) {
		u.Neighbors(p, func(_ int, q grid.Point) { visit(q) })
	})
}

// refNNStretchTorus is the oracle for the periodic-boundary engine, with
// its own wrap arithmetic: on a 2-cycle the ±1 neighbours coincide and
// count once.
func refNNStretchTorus(c curve.Curve) (davg, dmax *big.Rat, ok bool) {
	side := c.Universe().Side()
	deltas := []uint32{1}
	if side > 2 {
		deltas = append(deltas, side-1)
	}
	return refStretch(c, func(p, q grid.Point, visit func(grid.Point)) {
		copy(q, p)
		for dim := range p {
			for _, delta := range deltas {
				if q[dim] = (p[dim] + delta) & (side - 1); q[dim] != p[dim] {
					visit(q)
				}
			}
			q[dim] = p[dim]
		}
	})
}

// rounded returns the float64 roundings of exact (Davg, Dmax) — what the
// engines must return.
func rounded(davg, dmax *big.Rat) core.NN {
	a, _ := davg.Float64()
	m, _ := dmax.Float64()
	return core.NN{DAvg: a, DMax: m}
}

// absDiff returns |a − b| for curve indices.
func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}
