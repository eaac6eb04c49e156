package core

import (
	"sync"

	"repro/internal/curve"
	"repro/internal/grid"
)

// Kernelized sweep partials: when the curve has a batch encoder
// (curve.HasKernel), the exact engines encode every cell once with
// IndexBatch and read each neighbour's key back from a sliding window of
// keys, instead of a FromLinear + 1+2d interface Index calls per cell. In
// row-major (Linear) order the neighbour p ± e_i sits s^i cells away, so a
// window of 2·s^(d−1) keys around the cell being reduced holds all of them.
// The per-cell integer aggregates (sum, max, degree) and the chunk-ordered
// floating-point accumulation are identical to the scalar partials, so the
// results are bit-for-bit the same; the conformance engine's kernel-sweep
// column enforces that permanently.

// kernelBlock is the number of cells whose coordinates and keys are staged
// per batch: big enough to amortize dispatch, small enough that the staging
// buffers (12 bytes per cell at d=3) stay in L1.
const kernelBlock = 256

// noKey marks a missing neighbour in a block's neighbour rows. Curve keys
// occupy at most 62 bits, so the all-ones value can never be a real key.
const noKey = ^uint64(0)

// nnAcc carries one chunk's running totals of the NN sweeps.
type nnAcc struct{ avg, max float64 }

// fillBlockCoords writes the coordinates of the cells with Linear indices
// [lo, lo+cnt) into coords, row-major, by decoding the first cell and
// incrementing with carries from there (dimension 0 is least significant).
// The copy-and-carry is fused into one elementwise pass — a memmove call per
// 8-byte row would dominate the whole sweep kernel.
func fillBlockCoords(u *grid.Universe, lo uint64, cnt int, coords []uint32) {
	d := u.D()
	side := u.Side()
	u.FromLinear(lo, grid.Point(coords[:d]))
	for j := 1; j < cnt; j++ {
		prev := coords[(j-1)*d : j*d : j*d]
		row := coords[j*d : (j+1)*d : (j+1)*d]
		i := 0
		for ; i < d; i++ {
			if v := prev[i] + 1; v < side {
				row[i] = v
				i++
				break
			}
			row[i] = 0
		}
		for ; i < d; i++ {
			row[i] = prev[i]
		}
	}
}

// sweepWindow is one chunk worker's view of the curve keys while it sweeps
// its chunk [lo, hi) in Linear order. The key of cell lin lives at
// ring[lin & mask]. Before a block [blo, blo+cnt) is reduced, the encode
// front is advanced to blo+cnt+s^(d−1), so every neighbour key the block
// reads, at most s^(d−1) cells behind or ahead, is in the ring. Each chunk
// encodes [lo − s^(d−1), hi + s^(d−1)) ∩ [0, n) exactly once.
//
// Memory: a block reads 2·s^(d−1) + kernelBlock consecutive keys; the ring
// is the next power of two ≥ 2·s^(d−1) + 2·kernelBlock keys, 8 bytes each,
// so that a block of slack separates the front from the oldest key still
// read. The torus sweep adds the keys of the first and last
// slab (cells with p[d−1] = 0 and p[d−1] = s−1), 16·s^(d−1) bytes. At d = 3,
// k = 7 that is 512 KiB + 256 KiB per worker, plus a few KiB of block
// staging. Windows are recycled through windowPool, so a repeated sweep
// allocates none of it.
type sweepWindow struct {
	u       *grid.Universe
	b       curve.Batcher
	torus   bool
	k       uint     // bits per coordinate
	top     uint64   // s−1, the largest coordinate
	strides []uint64 // s^i: the Linear distance of the ±e_i neighbour
	slab    uint64   // s^(d−1) = strides[d−1]
	ring    []uint64
	mask    uint64
	front   uint64   // next cell to encode; ring holds [front−len(ring), front)
	coords  []uint32 // staging for encodes, kernelBlock rows
	bases   []uint64 // the block's own keys
	nbs     []uint64 // the block's neighbour rows: slot 2i is −e_i, 2i+1 is +e_i
	first   []uint64 // torus: keys of cells [0, slab), as far as the chunk needs
	last    []uint64 // torus: keys of cells [n−slab, n), as far as the chunk needs
}

var windowPool = sync.Pool{New: func() any { return new(sweepWindow) }}

// resized returns s with length n, reusing its backing array when it is
// large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// openWindow takes a window from the pool and readies it for the chunk
// [lo, hi) of c's universe. c must implement curve.Batcher.
func openWindow(c curve.Curve, lo, hi uint64, torus bool) *sweepWindow {
	u := c.Universe()
	d, k := u.D(), uint(u.K())
	w := windowPool.Get().(*sweepWindow)
	w.u, w.b, w.torus = u, c.(curve.Batcher), torus
	w.k, w.top = k, uint64(u.Side())-1
	w.strides = resized(w.strides, d)
	for i := range w.strides {
		w.strides[i] = 1 << (k * uint(i))
	}
	w.slab = w.strides[d-1]
	size := 1
	for uint64(size) < 2*w.slab+2*kernelBlock {
		size <<= 1
	}
	w.ring = resized(w.ring, size)
	w.mask = uint64(size - 1)
	w.coords = resized(w.coords, kernelBlock*d)
	w.bases = resized(w.bases, kernelBlock)
	w.nbs = resized(w.nbs, kernelBlock*2*d)
	w.front = 0
	if lo > w.slab {
		w.front = lo - w.slab
	}
	if torus {
		// The dimension d−1 wraps of the chunk's cells reach the far slab:
		// p[d−1] = 0 (Linear [0, slab)) reads the last slab at the same
		// offset, p[d−1] = s−1 (Linear [n−slab, n)) reads the first.
		n := u.N()
		w.first = resized(w.first, int(w.slab))
		w.last = resized(w.last, int(w.slab))
		if lo < w.slab {
			end := min(hi, w.slab)
			w.encode(n-w.slab+lo, w.last[lo:end])
		}
		if hi > n-w.slab {
			start := max(lo, n-w.slab) - (n - w.slab)
			w.encode(start, w.first[start:hi-(n-w.slab)])
		}
	}
	return w
}

// close returns the window to the pool, without the curve and universe, so
// that a pooled window pins no curve tables.
func (w *sweepWindow) close() {
	w.u, w.b = nil, nil
	windowPool.Put(w)
}

// encode writes the keys of the cells [from, from+len(dst)) into dst.
func (w *sweepWindow) encode(from uint64, dst []uint64) {
	d := w.u.D()
	for len(dst) > 0 {
		m := min(len(dst), kernelBlock)
		fillBlockCoords(w.u, from, m, w.coords)
		w.b.IndexBatch(w.coords[:m*d], dst[:m])
		from += uint64(m)
		dst = dst[m:]
	}
}

// advance encodes cells into the ring until the front reaches to. A batch
// never crosses the end of the ring, so IndexBatch writes into it directly.
func (w *sweepWindow) advance(to uint64) {
	for w.front < to {
		at := w.front & w.mask
		m := min(to-w.front, uint64(len(w.ring))-at)
		w.encode(w.front, w.ring[at:at+m])
		w.front += m
	}
}

// load readies the block of cells [blo, min(blo+kernelBlock, hi)): it
// fills w.bases with their keys and w.nbs with their neighbour rows (noKey
// where a neighbour is missing), and returns the block's length. Blocks
// must be loaded in increasing order.
func (w *sweepWindow) load(blo, hi uint64) int {
	cnt := int(min(hi-blo, kernelBlock))
	w.advance(min(blo+uint64(cnt)+w.slab, w.u.N()))
	nd := 2 * len(w.strides)
	for j := 0; j < cnt; j++ {
		lin := blo + uint64(j)
		w.bases[j] = w.ring[lin&w.mask]
		row := w.nbs[j*nd : (j+1)*nd : (j+1)*nd]
		if w.torus {
			w.torusRow(lin, row)
		} else {
			w.openRow(lin, row)
		}
	}
	return cnt
}

// openRow fills one cell's open-grid neighbour row. The side is a power of
// two, so coordinate i of the cell is a bit field of its Linear index.
func (w *sweepWindow) openRow(lin uint64, row []uint64) {
	ring, mask, top := w.ring, w.mask, w.top
	for i, st := range w.strides {
		c := lin >> (w.k * uint(i)) & top
		row[2*i], row[2*i+1] = noKey, noKey
		if c > 0 {
			row[2*i] = ring[(lin-st)&mask]
		}
		if c < top {
			row[2*i+1] = ring[(lin+st)&mask]
		}
	}
}

// torusRow fills one cell's periodic neighbour row. It follows the torus
// engine's simple-graph convention: the −e_i neighbour is emitted only for
// side > 2 (on a 2-cycle it coincides with the +e_i one). A wrap in a
// dimension below d−1 moves at most s^(d−1)−1 cells and stays inside the
// ring; a wrap in dimension d−1 reads the far slab.
func (w *sweepWindow) torusRow(lin uint64, row []uint64) {
	ring, mask, top := w.ring, w.mask, w.top
	last := len(w.strides) - 1
	for i, st := range w.strides {
		c := lin >> (w.k * uint(i)) & top
		wrap := top * st
		row[2*i] = noKey
		if top > 1 {
			switch {
			case c > 0:
				row[2*i] = ring[(lin-st)&mask]
			case i < last:
				row[2*i] = ring[(lin+wrap)&mask]
			default:
				row[2*i] = w.last[lin]
			}
		}
		switch {
		case c < top:
			row[2*i+1] = ring[(lin+st)&mask]
		case i < last:
			row[2*i+1] = ring[(lin-wrap)&mask]
		default:
			row[2*i+1] = w.first[lin-wrap]
		}
	}
}

// accumulate folds one neighbor key into a cell's (sum, max, degree)
// aggregate.
func accumulate(base, nb uint64, sum, max uint64, deg int) (uint64, uint64, int) {
	if nb == noKey {
		return sum, max, deg
	}
	dd := nb - base
	if base > nb {
		dd = base - nb
	}
	sum += dd
	if dd > max {
		max = dd
	}
	return sum, max, deg + 1
}

// cellAggregate reduces one cell's neighbor-key row to its integer
// (sum, max, degree) triple. The d = 2, 3 rows are unrolled: the reduction
// runs once per cell of every exact sweep, and at ~20 surviving ops per cell
// the loop bookkeeping itself is measurable.
func cellAggregate(base uint64, row []uint64) (sum, max uint64, deg int) {
	switch len(row) {
	case 4:
		sum, max, deg = accumulate(base, row[0], sum, max, deg)
		sum, max, deg = accumulate(base, row[1], sum, max, deg)
		sum, max, deg = accumulate(base, row[2], sum, max, deg)
		sum, max, deg = accumulate(base, row[3], sum, max, deg)
	case 6:
		sum, max, deg = accumulate(base, row[0], sum, max, deg)
		sum, max, deg = accumulate(base, row[1], sum, max, deg)
		sum, max, deg = accumulate(base, row[2], sum, max, deg)
		sum, max, deg = accumulate(base, row[3], sum, max, deg)
		sum, max, deg = accumulate(base, row[4], sum, max, deg)
		sum, max, deg = accumulate(base, row[5], sum, max, deg)
	default:
		for _, nb := range row {
			sum, max, deg = accumulate(base, nb, sum, max, deg)
		}
	}
	return sum, max, deg
}

// nnKernelPartial is the kernelized chunk worker behind NNStretchResult.
// It reproduces the scalar partial's arithmetic exactly: per cell the
// integer (sum, max, degree) over valid neighbors, folded through the shared
// nnSum in Linear cell order.
func nnKernelPartial(c curve.Curve) func(lo, hi uint64) nnAcc {
	nd := 2 * c.Universe().D()
	return func(lo, hi uint64) nnAcc {
		w := openWindow(c, lo, hi, false)
		defer w.close()
		var a nnSum
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := w.load(blo, hi)
			for j := 0; j < cnt; j++ {
				a.addCell(cellAggregate(w.bases[j], w.nbs[j*nd:(j+1)*nd:(j+1)*nd]))
			}
		}
		return a.acc()
	}
}

// nnTorusKernelPartial is the kernelized chunk worker behind
// NNStretchTorusResult; like the scalar torus partial it skips degree-zero
// cells.
func nnTorusKernelPartial(c curve.Curve) func(lo, hi uint64) nnAcc {
	nd := 2 * c.Universe().D()
	return func(lo, hi uint64) nnAcc {
		w := openWindow(c, lo, hi, true)
		defer w.close()
		var a nnSum
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := w.load(blo, hi)
			for j := 0; j < cnt; j++ {
				sum, max, deg := cellAggregate(w.bases[j], w.nbs[j*nd:(j+1)*nd:(j+1)*nd])
				if deg == 0 {
					continue
				}
				a.addCell(sum, max, deg)
			}
		}
		return a.acc()
	}
}

// lambdasKernelPartial is the kernelized chunk worker behind Lambdas: only
// the +e_i neighbor keys contribute (the unordered pair (α, α+e_i) is
// charged to α).
func lambdasKernelPartial(c curve.Curve) func(lo, hi uint64) []uint64 {
	d := c.Universe().D()
	return func(lo, hi uint64) []uint64 {
		w := openWindow(c, lo, hi, false)
		defer w.close()
		sums := make([]uint64, d)
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := w.load(blo, hi)
			for j := 0; j < cnt; j++ {
				base := w.bases[j]
				for i := 0; i < d; i++ {
					if nb := w.nbs[j*2*d+2*i+1]; nb != noKey {
						sums[i] += absDiff(base, nb)
					}
				}
			}
		}
		return sums
	}
}
