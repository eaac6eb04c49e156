package curve

import (
	mbits "math/bits"

	"repro/internal/bits"
	"repro/internal/grid"
)

// Hilbert is the d-dimensional Hilbert curve, implemented with Skilling's
// transpose algorithm (J. Skilling, "Programming the Hilbert curve", AIP
// Conf. Proc. 707, 2004). The curve is unit-step (consecutive positions are
// nearest neighbors) and non-self-intersecting in every dimension.
//
// The paper leaves the average NN-stretch of the Hilbert curve as an open
// question (§VI); the experiment harness measures it (experiment
// "ext-hilbert") and finds it in the same Θ(n^(1−1/d)) regime as the Z
// curve.
type Hilbert struct {
	u   *grid.Universe
	tab *hilbertTable // derived state table, nil when unavailable
}

// NewHilbert returns the Hilbert curve over u.
func NewHilbert(u *grid.Universe) *Hilbert {
	return &Hilbert{u: u, tab: hilbertTableFor(u.D())}
}

// Universe implements Curve.
func (h *Hilbert) Universe() *grid.Universe { return h.u }

// Name implements Curve.
func (h *Hilbert) Name() string { return "hilbert" }

// Index implements Curve: it converts the axes to Skilling's transposed
// Hilbert form in a scratch copy and interleaves the transpose bits into the
// final index (most significant level first, matching the bits package
// convention).
func (h *Hilbert) Index(p grid.Point) uint64 {
	d, k := h.u.D(), h.u.K()
	if k == 0 {
		return 0
	}
	var buf [16]uint32
	var x []uint32
	if d <= len(buf) {
		x = buf[:d]
	} else {
		x = make([]uint32, d)
	}
	copy(x, p)
	axesToTranspose(x, k)
	return bits.Interleave(x, k)
}

// Point implements Curve.
func (h *Hilbert) Point(idx uint64, dst grid.Point) {
	k := h.u.K()
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	bits.Deinterleave(idx, k, dst)
	transposeToAxes(dst, k)
}

// IndexBatch implements Batcher: LUT Morton spread of the coordinates
// followed by the per-level state-machine walk, replacing the scalar path's
// bit-serial rotate/reflect loop. Falls back to the scalar method when the
// state table is unavailable.
//
// A key shares the walk of the previous one down to the highest level at
// which their Morton keys differ: the walk restarts there, from the state it
// entered that level with, and the digits above are the previous key's.
// Cells in row-major order change about two levels per key, not k. A
// restart in the upper half of the levels walks from the top instead, so
// random input has one walk length and the loop exit stays predicted; a walk
// from the top starts from state 0, not from the previous walk, so
// consecutive walks, and the next key's spread, overlap in the pipeline.
func (h *Hilbert) IndexBatch(coords []uint32, dst []uint64) {
	d, k := h.u.D(), h.u.K()
	tab := h.tab
	if tab == nil {
		for i := range dst {
			dst[i] = h.Index(grid.Point(coords[i*d : (i+1)*d : (i+1)*d]))
		}
		return
	}
	lut2, lut3 := d == 2, d == 3 && k <= 20
	ud, kd := uint(d), uint(d*k)
	dmask := uint32(1)<<ud - 1
	var rows [bits.MaxKeyBits + 1]uint32 // rows[sh]: the state row entering the level at bits [sh−d, sh)
	prevM, prevKey := ^uint64(0), uint64(0)
	for i := range dst {
		var m uint64
		switch {
		case lut2:
			m = bits.Interleave2LUT(coords[2*i], coords[2*i+1])
		case lut3:
			m = bits.Interleave3LUT(coords[3*i], coords[3*i+1], coords[3*i+2])
		default:
			m = bits.Interleave(grid.Point(coords[i*d:(i+1)*d:(i+1)*d]), k)
		}
		top := uint(tab.levels[mbits.Len64(m^prevM)]) * ud // bits to walk
		if top > kd/2 {
			top = kd
		}
		row := rows[top]
		var low uint64
		for sh := top; sh > 0; {
			sh -= ud
			e := tab.enc[row|uint32(m>>sh)&dmask]
			low = low<<ud | uint64(e&dmask)
			row = e &^ dmask
			rows[sh] = row
		}
		prevM, prevKey = m, prevKey>>top<<top|low
		dst[i] = prevKey
	}
}

// PointBatch implements Batcher: state-machine walk back to the Morton key,
// then a LUT compaction into coordinates.
func (h *Hilbert) PointBatch(indices []uint64, dst []uint32) {
	d, k := h.u.D(), h.u.K()
	tab := h.tab
	if tab == nil {
		for i, idx := range indices {
			h.Point(idx, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
		}
		return
	}
	switch {
	case d == 2:
		for i, idx := range indices {
			dst[2*i], dst[2*i+1] = bits.Deinterleave2LUT(tab.decode(idx, k))
		}
	case d == 3 && k <= 20:
		for i, idx := range indices {
			dst[3*i], dst[3*i+1], dst[3*i+2] = bits.Deinterleave3LUT(tab.decode(idx, k))
		}
	default:
		for i, idx := range indices {
			bits.Deinterleave(tab.decode(idx, k), k, grid.Point(dst[i*d:(i+1)*d:(i+1)*d]))
		}
	}
}

var (
	_ Curve   = (*Hilbert)(nil)
	_ Batcher = (*Hilbert)(nil)
)

// axesToTranspose converts grid coordinates (k bits each) into Skilling's
// transposed Hilbert representation, in place.
func axesToTranspose(x []uint32, k int) {
	n := len(x)
	m := uint32(1) << uint(k-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose, in place.
func transposeToAxes(x []uint32, k int) {
	n := len(x)
	top := uint32(2) << uint(k-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != top; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t = (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}
