// Package query implements an SFC-keyed spatial index — the database
// application of space filling curves referenced by the paper's
// introduction (secondary-memory data structures [9], GIS [1]). Points are
// stored sorted by curve key; an axis-aligned box query is decomposed into
// a set of curve-index intervals, each answered by binary search.
//
// The number of intervals a box decomposes into is exactly the clustering
// metric of Moon et al. (see the cluster package), tying the database view
// back to the paper's related-work discussion.
package query

import (
	"fmt"
	"sort"

	"repro/internal/curve"
	"repro/internal/grid"
)

// Box is an axis-aligned query region with inclusive corners Lo and Hi.
type Box struct {
	Lo, Hi grid.Point
}

// NewBox validates and builds a box over u.
func NewBox(u *grid.Universe, lo, hi grid.Point) (Box, error) {
	if !u.Contains(lo) || !u.Contains(hi) {
		return Box{}, fmt.Errorf("query: box corners %v, %v outside %v", lo, hi, u)
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("query: inverted box in dimension %d", i+1)
		}
	}
	return Box{Lo: lo.Clone(), Hi: hi.Clone()}, nil
}

// Contains reports whether cell p lies in the box.
func (b Box) Contains(p grid.Point) bool {
	for i := range p {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Volume returns the number of cells in the box.
func (b Box) Volume() uint64 {
	v := uint64(1)
	for i := range b.Lo {
		v *= uint64(b.Hi[i]-b.Lo[i]) + 1
	}
	return v
}

// Interval is a half-open range [Lo, Hi) of curve indices.
type Interval struct {
	Lo, Hi uint64
}

// Len returns the number of indices in the interval.
func (iv Interval) Len() uint64 { return iv.Hi - iv.Lo }

// DecomposeBox expresses the set of curve indices of the cells in the box
// as a minimal sorted list of disjoint intervals.
//
// Hierarchical curves (Z, Hilbert, Gray — where every aligned power-of-two
// subcube occupies one aligned contiguous index range) use a recursive
// subcube decomposition costing O(output · d·k); the simple and snake
// curves use row-run decomposition; any other curve falls back to
// enumerating the box's cells, which is always correct but costs
// O(volume · log volume).
func DecomposeBox(c curve.Curve, b Box) []Interval {
	var ivs []Interval
	switch c.(type) {
	case *curve.Z, *curve.Hilbert, *curve.Gray:
		ivs = hierarchicalDecompose(c, b)
	case *curve.Simple, *curve.Snake:
		ivs = rowDecompose(c, b)
	default:
		ivs = bruteDecompose(c, b)
	}
	return MergeIntervals(ivs)
}

// hierarchicalDecompose recursively splits the universe into aligned
// subcubes. A subcube disjoint from the box contributes nothing; one fully
// inside contributes its whole (contiguous, aligned) index range; a
// straddling subcube is split into its 2^d children.
func hierarchicalDecompose(c curve.Curve, b Box) []Interval {
	u := c.Universe()
	d := u.D()
	var out []Interval
	corner := u.NewPoint()
	// One origin per recursion level, carved from one slab: a node's
	// children are visited one at a time, so they share the next level's
	// slot, and nothing deeper ever writes to a shallower one.
	origins := make([]uint32, (u.K()+1)*d)
	var recurse func(origin grid.Point, level int)
	recurse = func(origin grid.Point, level int) {
		size := u.Side() >> uint(level) // subcube side length
		// Classify subcube vs box.
		inside := true
		for i := 0; i < d; i++ {
			subLo := origin[i]
			subHi := origin[i] + size - 1
			if subHi < b.Lo[i] || subLo > b.Hi[i] {
				return // disjoint
			}
			if subLo < b.Lo[i] || subHi > b.Hi[i] {
				inside = false
			}
		}
		if inside {
			cells := uint64(1) << uint(d*(u.K()-level))
			copy(corner, origin)
			idx := c.Index(corner)
			lo := idx / cells * cells // aligned range containing the corner
			out = append(out, Interval{Lo: lo, Hi: lo + cells})
			return
		}
		if size == 1 {
			// Straddling is impossible for single cells; handled above.
			return
		}
		half := size / 2
		child := grid.Point(origins[(level+1)*d : (level+2)*d])
		for mask := 0; mask < 1<<uint(d); mask++ {
			for i := 0; i < d; i++ {
				child[i] = origin[i]
				if mask&(1<<uint(i)) != 0 {
					child[i] += half
				}
			}
			recurse(child, level+1)
		}
	}
	recurse(grid.Point(origins[:d]), 0)
	return out
}

// rowDecompose handles the simple and snake curves: every run of cells
// along dimension 1 with the higher coordinates fixed is contiguous on the
// curve, so the box decomposes into one interval per higher-coordinate
// combination.
func rowDecompose(c curve.Curve, b Box) []Interval {
	u := c.Universe()
	d := u.D()
	out := make([]Interval, 0, 16)
	p := b.Lo.Clone()
	for {
		// Run along dimension 1 from Lo[0] to Hi[0] at the current higher
		// coordinates: its curve indices are contiguous (possibly reversed
		// for the snake), so take min/max of the endpoints.
		p[0] = b.Lo[0]
		a := c.Index(p)
		p[0] = b.Hi[0]
		z := c.Index(p)
		if a > z {
			a, z = z, a
		}
		out = append(out, Interval{Lo: a, Hi: z + 1})
		// Odometer over dimensions 2..d within the box.
		i := 1
		for ; i < d; i++ {
			p[i]++
			if p[i] <= b.Hi[i] {
				break
			}
			p[i] = b.Lo[i]
		}
		if i == d {
			return out
		}
	}
}

// bruteDecompose enumerates the box's cells, sorts their curve indices and
// merges consecutive runs. Correct for any curve.
func bruteDecompose(c curve.Curve, b Box) []Interval {
	u := c.Universe()
	d := u.D()
	keys := make([]uint64, 0, b.Volume())
	p := b.Lo.Clone()
	for {
		keys = append(keys, c.Index(p))
		i := 0
		for ; i < d; i++ {
			p[i]++
			if p[i] <= b.Hi[i] {
				break
			}
			p[i] = b.Lo[i]
		}
		if i == d {
			break
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Interval
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[j-1]+1 {
			j++
		}
		out = append(out, Interval{Lo: keys[i], Hi: keys[j-1] + 1})
		i = j
	}
	return out
}

// MergeIntervals sorts and coalesces touching or overlapping intervals in
// place, returning the canonical sorted disjoint form. It is the shared
// normalizer for decompositions, degraded-query dark spans, and the
// service layer's cross-shard merges.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// ClipIntervals restricts sorted disjoint intervals to the half-open
// segment [lo, hi): how a shard or a cluster member is handed only the part
// of a decomposition it owns. The result is nil when nothing intersects.
func ClipIntervals(ivs []Interval, lo, hi uint64) []Interval {
	var out []Interval
	for _, iv := range ivs {
		if iv.Lo >= hi {
			break // sorted: nothing further intersects
		}
		a, b := iv.Lo, iv.Hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			out = append(out, Interval{Lo: a, Hi: b})
		}
	}
	return out
}

// IntervalsContain reports whether key lies in any of the sorted, disjoint
// intervals, by binary search.
func IntervalsContain(ivs []Interval, key uint64) bool {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].Hi > key })
	return i < len(ivs) && ivs[i].Lo <= key
}
