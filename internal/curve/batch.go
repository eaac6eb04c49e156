package curve

import (
	"repro/internal/grid"
)

// This file defines the kernel layer of the curve package: an optional
// batch fast path that computes exactly the same bits as the scalar
// Index/Point methods, but amortizes interface dispatch, bounds checks and
// per-point bit fiddling. Every exact metric in the core package encodes
// each of its n cells once, so this layer sets the throughput ceiling of the
// finite-n sweeps. The conformance engine carries a dedicated column
// (kernel-batch / kernel-sweep) proving the fast paths bit-match the scalar
// ones for every registered curve.

// Batcher is the batch evaluation interface: IndexBatch and PointBatch are
// the vectorized forms of Curve.Index and Curve.Point over flat row-major
// coordinate storage (point i occupies coords[i*d : (i+1)*d], the same
// layout the core package uses for its flattened universes).
//
// Implementations must produce bit-identical results to the scalar methods
// and must be safe for concurrent use.
type Batcher interface {
	// IndexBatch writes Index of each of the len(dst) points in coords.
	// coords must have length len(dst)·d.
	IndexBatch(coords []uint32, dst []uint64)
	// PointBatch writes the coordinates of each index into dst, point i at
	// dst[i*d : (i+1)*d]. dst must have length len(indices)·d.
	PointBatch(indices []uint64, dst []uint32)
}

// HasKernel reports whether c natively implements Batcher. The core
// engines consult it to decide between the kernelized sweep and the scalar
// reference loop; NewBatcher works for every curve regardless, via a scalar
// adapter.
func HasKernel(c Curve) bool {
	_, ok := c.(Batcher)
	return ok
}

// NewBatcher returns the batch evaluation interface for c: c itself when it
// implements Batcher natively, otherwise a scalar adapter that loops the
// Curve methods (same bits, no speedup).
func NewBatcher(c Curve) Batcher {
	if b, ok := c.(Batcher); ok {
		return b
	}
	return &scalarBatcher{c: c, d: c.Universe().D()}
}

// scalarBatcher adapts any Curve to the Batcher interface by looping the
// scalar methods.
type scalarBatcher struct {
	c Curve
	d int
}

func (s *scalarBatcher) IndexBatch(coords []uint32, dst []uint64) {
	d := s.d
	for i := range dst {
		dst[i] = s.c.Index(grid.Point(coords[i*d : (i+1)*d : (i+1)*d]))
	}
}

func (s *scalarBatcher) PointBatch(indices []uint64, dst []uint32) {
	d := s.d
	for i, idx := range indices {
		s.c.Point(idx, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
	}
}

// ScalarOnly wraps c so that only the plain Curve methods remain visible:
// HasKernel reports false and every engine takes the scalar reference loop.
// The benchmark harness and the conformance kernel-sweep check use it as
// the reference the kernelized sweeps must match bit for bit.
func ScalarOnly(c Curve) Curve { return scalarOnly{c} }

type scalarOnly struct{ c Curve }

func (s scalarOnly) Universe() *grid.Universe         { return s.c.Universe() }
func (s scalarOnly) Index(p grid.Point) uint64        { return s.c.Index(p) }
func (s scalarOnly) Point(idx uint64, dst grid.Point) { s.c.Point(idx, dst) }
func (s scalarOnly) Name() string                     { return s.c.Name() }
