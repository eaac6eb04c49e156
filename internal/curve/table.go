package curve

import (
	"fmt"

	"repro/internal/grid"
)

// Table is an explicit space filling curve given by a lookup table: entry i
// of the table is the curve index of the cell with Linear index i. It
// realizes the paper's fully general definition of an SFC — any bijection —
// and is used for the hand-constructed curves of Figure 1 and for random
// bijections in property tests.
type Table struct {
	u    *grid.Universe
	name string
	perm []uint64
	inv  []uint64
}

// NewTable builds a table curve. perm[linearIndex] = curve index; it must be
// a permutation of [0, n).
func NewTable(u *grid.Universe, name string, perm []uint64) (*Table, error) {
	n := u.N()
	if uint64(len(perm)) != n {
		return nil, fmt.Errorf("curve: table of %d entries for n=%d", len(perm), n)
	}
	inv := make([]uint64, n)
	seen := make([]bool, n)
	for lin, idx := range perm {
		if idx >= n {
			return nil, fmt.Errorf("curve: table entry %d = %d out of range", lin, idx)
		}
		if seen[idx] {
			return nil, fmt.Errorf("curve: table assigns index %d twice", idx)
		}
		seen[idx] = true
		inv[idx] = uint64(lin)
	}
	return &Table{u: u, name: name, perm: perm, inv: inv}, nil
}

// MustTable is NewTable for known-good tables. It panics iff NewTable would
// return an error (a perm that is not a bijection on [0, n), or a size
// mismatch with the universe), so it is safe exactly for hard-coded
// permutations whose validity is established by the package's own tests.
// Code building tables from computed or external data must use NewTable and
// propagate the error.
func MustTable(u *grid.Universe, name string, perm []uint64) *Table {
	t, err := NewTable(u, name, perm)
	if err != nil {
		panic(err)
	}
	return t
}

// FromOrder builds a table curve from a visiting order: order[t] is the
// Linear index of the cell visited at curve position t.
func FromOrder(u *grid.Universe, name string, order []uint64) (*Table, error) {
	n := u.N()
	if uint64(len(order)) != n {
		return nil, fmt.Errorf("curve: order of %d entries for n=%d", len(order), n)
	}
	perm := make([]uint64, n)
	seen := make([]bool, n)
	for pos, lin := range order {
		if lin >= n {
			return nil, fmt.Errorf("curve: order entry %d = %d out of range", pos, lin)
		}
		if seen[lin] {
			return nil, fmt.Errorf("curve: order visits cell %d twice", lin)
		}
		seen[lin] = true
		perm[lin] = uint64(pos)
	}
	return NewTable(u, name, perm)
}

// TableFromCurve materializes src into an explicit lookup table with the
// given name. The result is pointwise identical to src but answers every
// query through the table code path — the conformance engine uses such
// shadows as a differential oracle against the arithmetic implementations,
// and the registry's "table" curve is the Z curve materialized this way.
// Universes larger than MaxRandomCells cells are rejected (the table costs
// 16 bytes per cell).
func TableFromCurve(src Curve, name string) (*Table, error) {
	u := src.Universe()
	n := u.N()
	if n > MaxRandomCells {
		return nil, fmt.Errorf("curve: table over %d cells exceeds limit %d", n, MaxRandomCells)
	}
	perm := make([]uint64, n)
	p := u.NewPoint()
	for lin := uint64(0); lin < n; lin++ {
		u.FromLinear(lin, p)
		perm[lin] = src.Index(p)
	}
	return NewTable(u, name, perm)
}

// Universe implements Curve.
func (t *Table) Universe() *grid.Universe { return t.u }

// Name implements Curve.
func (t *Table) Name() string { return t.name }

// Index implements Curve.
func (t *Table) Index(p grid.Point) uint64 { return t.perm[t.u.Linear(p)] }

// Point implements Curve.
func (t *Table) Point(idx uint64, dst grid.Point) { t.u.FromLinear(t.inv[idx], dst) }

// IndexBatch implements Batcher: inline row-major linearization (the side is
// a power of two, so it is a bit concatenation) followed by the permutation
// lookup.
func (t *Table) IndexBatch(coords []uint32, dst []uint64) {
	d, k := t.u.D(), uint(t.u.K())
	for i := range dst {
		row := coords[i*d : (i+1)*d : (i+1)*d]
		var lin uint64
		for j := d - 1; j >= 0; j-- {
			lin = lin<<k | uint64(row[j])
		}
		dst[i] = t.perm[lin]
	}
}

// PointBatch implements Batcher.
func (t *Table) PointBatch(indices []uint64, dst []uint32) {
	d, k := t.u.D(), uint(t.u.K())
	mask := uint64(t.u.Side()) - 1
	for i, idx := range indices {
		row := dst[i*d : (i+1)*d : (i+1)*d]
		lin := t.inv[idx]
		for j := 0; j < d; j++ {
			row[j] = uint32(lin & mask)
			lin >>= k
		}
	}
}

var (
	_ Curve   = (*Table)(nil)
	_ Batcher = (*Table)(nil)
)
