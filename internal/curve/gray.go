package curve

import (
	"repro/internal/bits"
	"repro/internal/grid"
)

// Gray is the Gray-code curve of Faloutsos [9, 10] in the paper's related
// work: the curve visits cells in the order of the binary-reflected Gray
// code of their interleaved (Morton) keys. Equivalently, the position of a
// cell is the Gray rank of its Z key:
//
//	G(x) = gray⁻¹(Z(x)).
//
// Consecutive positions differ in exactly one bit of one coordinate, so
// steps are axis-parallel but may jump a power-of-two distance; the curve is
// not unit-step, but is a bijection and hence an SFC in the paper's sense.
type Gray struct {
	u *grid.Universe
}

// NewGray returns the Gray-code curve over u.
func NewGray(u *grid.Universe) *Gray {
	return &Gray{u: u}
}

// Universe implements Curve.
func (g *Gray) Universe() *grid.Universe { return g.u }

// Name implements Curve.
func (g *Gray) Name() string { return "gray" }

// Index implements Curve.
func (g *Gray) Index(p grid.Point) uint64 {
	return bits.GrayDecode(bits.Interleave(p, g.u.K()))
}

// Point implements Curve.
func (g *Gray) Point(idx uint64, dst grid.Point) {
	bits.Deinterleave(bits.GrayEncode(idx), g.u.K(), dst)
}

// IndexBatch implements Batcher: byte-LUT Morton spread followed by the
// Gray-rank cascade, for d=2,3; generic interleave otherwise.
func (g *Gray) IndexBatch(coords []uint32, dst []uint64) {
	switch g.u.D() {
	case 2:
		for i := range dst {
			dst[i] = bits.GrayDecode(bits.Interleave2LUT(coords[2*i], coords[2*i+1]))
		}
	case 3:
		if g.u.K() <= 20 {
			for i := range dst {
				dst[i] = bits.GrayDecode(bits.Interleave3LUT(coords[3*i], coords[3*i+1], coords[3*i+2]))
			}
			return
		}
		fallthrough
	default:
		d, k := g.u.D(), g.u.K()
		for i := range dst {
			dst[i] = bits.GrayDecode(bits.Interleave(grid.Point(coords[i*d:(i+1)*d:(i+1)*d]), k))
		}
	}
}

// PointBatch implements Batcher.
func (g *Gray) PointBatch(indices []uint64, dst []uint32) {
	switch g.u.D() {
	case 2:
		for i, idx := range indices {
			dst[2*i], dst[2*i+1] = bits.Deinterleave2LUT(bits.GrayEncode(idx))
		}
	case 3:
		if g.u.K() <= 20 {
			for i, idx := range indices {
				dst[3*i], dst[3*i+1], dst[3*i+2] = bits.Deinterleave3LUT(bits.GrayEncode(idx))
			}
			return
		}
		fallthrough
	default:
		d, k := g.u.D(), g.u.K()
		for i, idx := range indices {
			bits.Deinterleave(bits.GrayEncode(idx), k, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
		}
	}
}

var (
	_ Curve   = (*Gray)(nil)
	_ Batcher = (*Gray)(nil)
)
