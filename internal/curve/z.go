package curve

import (
	"repro/internal/bits"
	"repro/internal/grid"
)

// Z is the d-dimensional Z curve (Morton order) of §IV.B: the key of a cell
// interleaves the coordinate bits, most significant bits first, dimension 1
// contributing the most significant bit of each group:
//
//	Z(x) = x1^1 x2^1 … xd^1 x1^2 … xd^2 … x1^k … xd^k
//
// Theorem 2 of the paper: Davg(Z) ~ (1/d)·n^(1−1/d), within a factor 1.5 of
// the Theorem 1 lower bound irrespective of d.
type Z struct {
	u *grid.Universe
}

// NewZ returns the Z curve over u.
func NewZ(u *grid.Universe) *Z {
	return &Z{u: u}
}

// Universe implements Curve.
func (z *Z) Universe() *grid.Universe { return z.u }

// Name implements Curve.
func (z *Z) Name() string { return "z" }

// Index implements Curve: the Morton key of p.
func (z *Z) Index(p grid.Point) uint64 {
	switch z.u.D() {
	case 1:
		return uint64(p[0])
	case 2:
		return bits.Interleave2(p[0], p[1])
	case 3:
		if z.u.K() <= 20 {
			return bits.Interleave3(p[0], p[1], p[2])
		}
	}
	return bits.Interleave(p, z.u.K())
}

// Point implements Curve.
func (z *Z) Point(idx uint64, dst grid.Point) {
	switch z.u.D() {
	case 1:
		dst[0] = uint32(idx)
		return
	case 2:
		dst[0], dst[1] = bits.Deinterleave2(idx)
		return
	case 3:
		if z.u.K() <= 20 {
			dst[0], dst[1], dst[2] = bits.Deinterleave3(idx)
			return
		}
	}
	bits.Deinterleave(idx, z.u.K(), dst)
}

// IndexBatch implements Batcher with the byte-LUT Morton spreads for d=2,3.
func (z *Z) IndexBatch(coords []uint32, dst []uint64) {
	switch z.u.D() {
	case 1:
		for i := range dst {
			dst[i] = uint64(coords[i])
		}
	case 2:
		for i := range dst {
			dst[i] = bits.Interleave2LUT(coords[2*i], coords[2*i+1])
		}
	case 3:
		if z.u.K() <= 20 {
			for i := range dst {
				dst[i] = bits.Interleave3LUT(coords[3*i], coords[3*i+1], coords[3*i+2])
			}
			return
		}
		fallthrough
	default:
		d, k := z.u.D(), z.u.K()
		for i := range dst {
			dst[i] = bits.Interleave(grid.Point(coords[i*d:(i+1)*d:(i+1)*d]), k)
		}
	}
}

// PointBatch implements Batcher with the byte-LUT Morton compactions.
func (z *Z) PointBatch(indices []uint64, dst []uint32) {
	switch z.u.D() {
	case 1:
		for i, idx := range indices {
			dst[i] = uint32(idx)
		}
	case 2:
		for i, idx := range indices {
			dst[2*i], dst[2*i+1] = bits.Deinterleave2LUT(idx)
		}
	case 3:
		if z.u.K() <= 20 {
			for i, idx := range indices {
				dst[3*i], dst[3*i+1], dst[3*i+2] = bits.Deinterleave3LUT(idx)
			}
			return
		}
		fallthrough
	default:
		d, k := z.u.D(), z.u.K()
		for i, idx := range indices {
			bits.Deinterleave(idx, k, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
		}
	}
}

var (
	_ Curve   = (*Z)(nil)
	_ Batcher = (*Z)(nil)
)
