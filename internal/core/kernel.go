package core

import (
	"sync"

	"repro/internal/curve"
	"repro/internal/grid"
)

// Kernelized sweep partials: when the curve has a batch encoder
// (curve.HasKernel), the exact engines encode every cell once with
// IndexBatch into a sliding window of keys and sweep the chunk in one row
// pass over that window. In row-major (Linear) order the neighbour p ± e_i
// sits s^i cells away, so every neighbour key is another cell's own key.
// Rows whose coordinates 1…d−1 are all strictly inside the grid hold, apart
// from their two ends, only cells of degree 2d: at d = 2 and 3 those cells
// take a straight loop that differences each edge along dimensions 0 and 1
// once. Every other cell takes one general per-cell path. Both add integers
// — the per-degree distance sums T_g, Σ δmax and the per-dimension edge
// sums — exactly those of the scalar partials, so kernel and scalar results
// are equal; the conformance engine's kernel-sweep column enforces that
// permanently.

// kernelBlock is the number of cells whose coordinates are staged per
// IndexBatch call: big enough to amortize dispatch, small enough that the
// staging buffer (12 bytes per cell at d=3) stays in L1. On the line it is
// also the longest row segment of the row pass.
const kernelBlock = 256

// fillBlockCoords writes the coordinates of the cells with Linear indices
// [lo, lo+cnt) into coords, row-major: it decodes the first cell of each
// row run and counts coordinate 0 up from there, the others being the
// run's (dimension 0 is least significant). The copy is an elementwise
// loop — a memmove call per 8-byte row would dominate the whole sweep.
func fillBlockCoords(u *grid.Universe, lo uint64, cnt int, coords []uint32) {
	d := u.D()
	side := int(u.Side())
	for j := 0; j < cnt; {
		first := coords[j*d : (j+1)*d : (j+1)*d]
		u.FromLinear(lo+uint64(j), grid.Point(first))
		run := min(cnt-j, side-int(first[0]))
		rest := coords[(j+1)*d : (j+run)*d]
		switch d {
		case 2:
			x, y := first[0], first[1]
			for r := 0; r+1 < len(rest); r += 2 {
				x++
				c := rest[r : r+2 : r+2]
				c[0], c[1] = x, y
			}
		case 3:
			x, y, z := first[0], first[1], first[2]
			for r := 0; r+2 < len(rest); r += 3 {
				x++
				c := rest[r : r+3 : r+3]
				c[0], c[1], c[2] = x, y, z
			}
		default:
			for r := 0; r+d <= len(rest); r += d {
				rest[r] = first[0] + uint32(r/d+1)
				for i := 1; i < d; i++ {
					rest[r+i] = first[i]
				}
			}
		}
		j += run
	}
}

// sweepWindow is one chunk worker's view of the curve keys while it sweeps
// its chunk [lo, hi) in Linear order. The key of cell lin lives at
// ring[lin & mask]. The chunk is swept in row segments — the cells of one
// row (equal coordinates 1…d−1) inside the chunk, at most seg of them.
// Before a segment [a, b) is swept, the encode front is advanced to b+s^(d−1),
// so every neighbour key it reads, at most s^(d−1) cells behind or ahead, is
// in the ring. Each chunk encodes [lo − s^(d−1), hi + s^(d−1)) ∩ [0, n)
// exactly once.
//
// Memory: a segment reads 2·s^(d−1) + seg consecutive keys, so the ring is
// the next power of two ≥ 2·s^(d−1) + seg keys, 8 bytes each. Being a power
// of two ≥ s, it holds every full row contiguously. The up-edge buffer is
// one row, 8·s bytes. The torus sweep adds the keys of the first and last
// slab (cells with p[d−1] = 0 and p[d−1] = s−1), 16·s^(d−1) bytes. At d = 3,
// k = 7 that is 512 KiB + 256 KiB per worker, plus a few KiB of staging.
// Windows are recycled through windowPool, so a repeated sweep allocates
// none of it.
type sweepWindow struct {
	u       *grid.Universe
	b       curve.Batcher
	torus   bool
	k       uint     // bits per coordinate
	top     uint64   // s−1, the largest coordinate
	strides []uint64 // s^i: the Linear distance of the ±e_i neighbour
	slab    uint64   // s^(d−1) = strides[d−1]
	seg     uint64   // longest row segment: s, or kernelBlock on the line
	ring    []uint64
	mask    uint64
	front   uint64   // next cell to encode; ring holds [front−len(ring), front)
	coords  []uint32 // staging for encodes, kernelBlock rows
	// up[x] is |Δ| of the +e_1 edge of cell x of row upRow, valid for x in
	// [upA, upB): the next row reads it back as its −e_1 edge.
	up       []uint64
	upRow    uint64
	upA, upB uint64
	edges    []uint64 // Σ Δ over the chunk's open (α, α+e_i) edges, per i
	first    []uint64 // torus: keys of cells [0, slab), as far as the chunk needs
	last     []uint64 // torus: keys of cells [n−slab, n), as far as the chunk needs
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
	w.seg = w.top + 1
	if d == 1 {
		w.seg = kernelBlock
	}
	size := 1
	for uint64(size) < 2*w.slab+w.seg {
		size <<= 1
	}
	w.ring = resized(w.ring, size)
	w.mask = uint64(size - 1)
	w.coords = resized(w.coords, kernelBlock*d)
	if d > 1 {
		w.up = resized(w.up, int(w.top+1))
	}
	w.edges = resized(w.edges, d)
	clear(w.edges)
	w.upRow = ^uint64(0)
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

// pass sweeps the chunk [lo, hi) row segment by row segment: it adds every
// cell to a and every open (α, α+e_i) edge to w.edges[i]. In an interior
// row the cells other than the row ends take the straight loop, every other
// cell the general path.
func (w *sweepWindow) pass(lo, hi uint64, a *nnAcc) {
	n := w.u.N()
	for seg := lo; seg < hi; {
		row := seg >> w.k
		end := min(hi, (row+1)<<w.k, seg+w.seg)
		w.advance(min(end+w.slab, n))
		xa, xb := end, end // the straight loop's cells [xa, xb)
		if rs := row << w.k; w.interior(row) {
			xa = max(seg, rs+1)
			if xb = max(xa, min(end, rs+w.top)); xa < xb {
				w.run(row, xa-rs, xb-rs, a)
			}
		}
		for lin := seg; lin < xa; lin++ {
			w.cell(lin, a)
		}
		for lin := xb; lin < end; lin++ {
			w.cell(lin, a)
		}
		seg = end
	}
}

// interior reports whether every coordinate i ≥ 1 of the row is strictly
// inside the grid, so that the row's cells other than its two ends have
// degree 2d and no wrap. The straight loop is written for d = 2 and 3;
// other rows, and every row on the line, take the general path.
func (w *sweepWindow) interior(row uint64) bool {
	if d := len(w.strides); d < 2 || d > 3 {
		return false
	}
	for i := 1; i < len(w.strides); i++ {
		c := row >> (w.k * uint(i-1)) & w.top
		if c == 0 || c == w.top {
			return false
		}
	}
	return true
}

// run adds the cells xa … xb−1 of an interior row, 1 ≤ xa < xb ≤ s−1:
// every one has all 2d neighbours, none of them across a wrap. Rows are
// contiguous in the ring, so each neighbour direction is one slice read at
// x. The −e_0 distance is the previous cell's +e_0 one, and the −e_1
// distance is the previous row's +e_1 one, kept in w.up; only where the
// previous row did not fill w.up is it computed here.
func (w *sweepWindow) run(row, xa, xb uint64, a *nnAcc) {
	s, mask := w.top+1, w.mask
	rs := row << w.k
	slice := func(lin uint64) []uint64 {
		at := lin & mask
		return w.ring[at : at+s : at+s]
	}
	cur, up, buf := slice(rs), slice(rs+s), w.up[:s:s]
	if w.upRow+1 != row {
		w.upA, w.upB = xb, xb
	}
	if xa < w.upA || w.upB < xb {
		down := slice(rs - s)
		for x := xa; x < xb; x++ {
			if x < w.upA || x >= w.upB {
				buf[x] = absDiff(cur[x], down[x])
			}
		}
	}
	w.upRow, w.upA, w.upB = row, xa, xb

	var t, m u128
	var e0, e1 uint64
	prev := absDiff(cur[xa], cur[xa-1])
	if len(w.strides) == 2 {
		for x := xa; x < xb; x++ {
			key := cur[x]
			r := absDiff(cur[x+1], key)
			u := absDiff(up[x], key)
			dn := buf[x]
			buf[x] = u
			t.add(u128{lo: prev + r + u + dn})
			m.add(u128{lo: max(prev, r, u, dn)})
			e0 += r
			e1 += u
			prev = r
		}
	} else {
		var e2 uint64
		st := w.strides[2]
		below, above := slice(rs-st), slice(rs+st)
		for x := xa; x < xb; x++ {
			key := cur[x]
			r := absDiff(cur[x+1], key)
			u := absDiff(up[x], key)
			dn := buf[x]
			buf[x] = u
			lo, hi := absDiff(below[x], key), absDiff(above[x], key)
			t.add(u128{lo: prev + r + u + dn + lo + hi})
			m.add(u128{lo: max(prev, r, u, dn, lo, hi)})
			e0 += r
			e1 += u
			e2 += hi
			prev = r
		}
		w.edges[2] += e2
	}
	a.sum[len(a.sum)-1].add(t)
	a.max.add(m)
	w.edges[0] += e0
	w.edges[1] += e1
}

// cell adds one cell by the general path, testing each neighbour slot: on
// the open grid a slot past the boundary is empty; on the torus it wraps,
// following the torus engine's simple-graph convention that the −e_i
// neighbour exists only for side > 2 (on a 2-cycle it is the +e_i one). A
// wrap in a dimension below d−1 moves at most s^(d−1)−1 cells and stays
// inside the ring; a wrap in dimension d−1 reads the far slab.
func (w *sweepWindow) cell(lin uint64, a *nnAcc) {
	ring, mask, top := w.ring, w.mask, w.top
	key := ring[lin&mask]
	last := len(w.strides) - 1
	var sum, mx uint64
	deg := 0
	add := func(nb uint64) uint64 {
		dd := absDiff(key, nb)
		sum += dd
		mx = max(mx, dd)
		deg++
		return dd
	}
	for i, st := range w.strides {
		c := lin >> (w.k * uint(i)) & top
		wrap := top * st
		switch {
		case w.torus && top == 1:
		case c > 0:
			add(ring[(lin-st)&mask])
		case !w.torus:
		case i < last:
			add(ring[(lin+wrap)&mask])
		default:
			add(w.last[lin])
		}
		switch {
		case c < top:
			w.edges[i] += add(ring[(lin+st)&mask])
		case !w.torus:
		case i < last:
			add(ring[(lin-wrap)&mask])
		default:
			add(w.first[lin-wrap])
		}
	}
	a.addCell(sum, mx, deg)
}

// windowPass sweeps the chunk [lo, hi) of c by the row pass and returns its
// NN totals; edges, when not nil, receives its open edge sums.
func windowPass(c curve.Curve, lo, hi uint64, torus bool, edges []uint64) nnAcc {
	w := openWindow(c, lo, hi, torus)
	defer w.close()
	a := newNNAcc(c.Universe().D())
	w.pass(lo, hi, &a)
	copy(edges, w.edges)
	return a
}

// nnKernelPartial is the row-pass chunk worker behind NNStretchResult, or
// with torus behind NNStretchTorusResult.
func nnKernelPartial(c curve.Curve, torus bool) func(lo, hi uint64) nnAcc {
	return func(lo, hi uint64) nnAcc { return windowPass(c, lo, hi, torus, nil) }
}

// lambdasKernelPartial is the row-pass chunk worker behind Lambdas (the
// unordered pair (α, α+e_i) is charged to α).
func lambdasKernelPartial(c curve.Curve) func(lo, hi uint64) []uint64 {
	return func(lo, hi uint64) []uint64 {
		sums := make([]uint64, c.Universe().D())
		windowPass(c, lo, hi, false, sums)
		return sums
	}
}
