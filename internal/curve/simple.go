package curve

import (
	"repro/internal/grid"
)

// Simple is the paper's "simple curve" (§IV.C, eq. 8): plain row-major
// numbering with dimension 1 least significant,
//
//	S(α) = Σ_{i=1}^{d} x_i · side^(i−1).
//
// Theorem 3: Davg(S) ~ (1/d)·n^(1−1/d), matching the Z curve. Proposition 2:
// Dmax(S) = n^(1−1/d) exactly.
type Simple struct {
	u *grid.Universe
}

// NewSimple returns the simple curve over u.
func NewSimple(u *grid.Universe) *Simple {
	return &Simple{u: u}
}

// Universe implements Curve.
func (s *Simple) Universe() *grid.Universe { return s.u }

// Name implements Curve.
func (s *Simple) Name() string { return "simple" }

// Index implements Curve; it coincides with the universe's canonical
// row-major linear index.
func (s *Simple) Index(p grid.Point) uint64 { return s.u.Linear(p) }

// Point implements Curve.
func (s *Simple) Point(idx uint64, dst grid.Point) { s.u.FromLinear(idx, dst) }

// IndexBatch implements Batcher: the side length is a power of two, so the
// row-major index is a plain bit concatenation.
func (s *Simple) IndexBatch(coords []uint32, dst []uint64) {
	d, k := s.u.D(), uint(s.u.K())
	for i := range dst {
		row := coords[i*d : (i+1)*d : (i+1)*d]
		var idx uint64
		for j := d - 1; j >= 0; j-- {
			idx = idx<<k | uint64(row[j])
		}
		dst[i] = idx
	}
}

// PointBatch implements Batcher.
func (s *Simple) PointBatch(indices []uint64, dst []uint32) {
	d, k := s.u.D(), uint(s.u.K())
	mask := uint64(s.u.Side()) - 1
	for i, idx := range indices {
		row := dst[i*d : (i+1)*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] = uint32(idx & mask)
			idx >>= k
		}
	}
}

var (
	_ Curve   = (*Simple)(nil)
	_ Batcher = (*Simple)(nil)
)

// Snake is the boustrophedon ("lawnmower") curve: row-major order with the
// direction of traversal along each dimension alternating, so that
// consecutive curve positions are always nearest neighbors. It is the
// continuous cousin of the simple curve and shares its asymptotic
// average NN-stretch; the paper does not analyze it separately, but it is a
// useful unit-step baseline.
type Snake struct {
	u    *grid.Universe
	pows []uint64 // side^i for i = 0 … d−1
}

// NewSnake returns the snake curve over u.
func NewSnake(u *grid.Universe) *Snake {
	pows := make([]uint64, u.D())
	for i := range pows {
		pows[i] = grid.Pow64(uint64(u.Side()), i)
	}
	return &Snake{u: u, pows: pows}
}

// Universe implements Curve.
func (s *Snake) Universe() *grid.Universe { return s.u }

// Name implements Curve.
func (s *Snake) Name() string { return "snake" }

// Index implements Curve. Processing dimensions from most significant
// (dimension d) to least, the digit for dimension i is reflected exactly
// when the sum of the original coordinates of all higher dimensions is odd.
// Toggling that parity reverses the entire traversal of the lower-
// dimensional block, which is what makes consecutive positions nearest
// neighbors across block boundaries.
func (s *Snake) Index(p grid.Point) uint64 {
	side := uint64(s.u.Side())
	d := s.u.D()
	var idx uint64
	var sumHigher uint64
	for i := d - 1; i >= 0; i-- {
		c := uint64(p[i])
		digit := c
		if sumHigher&1 == 1 {
			digit = side - 1 - c
		}
		idx = idx*side + digit
		sumHigher += c
	}
	return idx
}

// Point implements Curve.
func (s *Snake) Point(idx uint64, dst grid.Point) {
	side := uint64(s.u.Side())
	d := s.u.D()
	var sumHigher uint64
	for i := d - 1; i >= 0; i-- {
		div := s.pows[i]
		digit := idx / div
		idx -= digit * div
		c := digit
		if sumHigher&1 == 1 {
			c = side - 1 - digit
		}
		dst[i] = uint32(c)
		sumHigher += c
	}
}

// IndexBatch implements Batcher: the scalar digit-reflection loop with the
// side length hoisted, shifts instead of multiplies (side is a power of
// two), and no interface dispatch per point.
func (s *Snake) IndexBatch(coords []uint32, dst []uint64) {
	d, k := s.u.D(), uint(s.u.K())
	max := uint64(s.u.Side()) - 1
	for i := range dst {
		row := coords[i*d : (i+1)*d : (i+1)*d]
		var idx, sumHigher uint64
		for j := d - 1; j >= 0; j-- {
			c := uint64(row[j])
			digit := c
			if sumHigher&1 == 1 {
				digit = max - c
			}
			idx = idx<<k | digit
			sumHigher += c
		}
		dst[i] = idx
	}
}

// PointBatch implements Batcher: digits are extracted by shift/mask instead
// of the scalar path's Pow64 division per dimension.
func (s *Snake) PointBatch(indices []uint64, dst []uint32) {
	d, k := s.u.D(), uint(s.u.K())
	max := uint64(s.u.Side()) - 1
	for i, idx := range indices {
		row := dst[i*d : (i+1)*d : (i+1)*d]
		var sumHigher uint64
		for j := d - 1; j >= 0; j-- {
			digit := (idx >> (uint(j) * k)) & max
			c := digit
			if sumHigher&1 == 1 {
				c = max - digit
			}
			row[j] = uint32(c)
			sumHigher += c
		}
	}
}

var (
	_ Curve   = (*Snake)(nil)
	_ Batcher = (*Snake)(nil)
)
