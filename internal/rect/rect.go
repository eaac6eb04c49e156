// Package rect generalizes the paper's model from cubes to rectangular
// universes with per-dimension sides 2^(k_i). The paper (§III) assumes all
// sides equal; real datasets are rarely cubic, and the paper's proof
// technique carries over directly:
//
//   - Lemma 2 (S_A′ identity) holds verbatim — it never uses geometry.
//   - Lemma 4's decomposition count becomes, for an edge along dimension i,
//     2·(n/s_i)·(z+1)(s_i−1−z) ≤ n·s_i/2, maximized by the longest side.
//   - Chaining exactly as in Theorem 1's proof yields the generalized
//     lower bound Davg(π) ≥ (2/(3d)) · (n²−1)/(n·s_max),
//     which reduces to the paper's bound when all sides are 2^k
//     (n/s_max = n^(1−1/d)).
//
// The package provides the rectangular universe, the two curves whose
// constructions extend naturally (compact Z — round-robin interleave that
// retires exhausted dimensions — and row-major), an exact parallel Davg
// sweep, a closed form for the row-major curve, and the generalized bound.
// Experiment "ext-rect" verifies all of it.
package rect

import (
	"fmt"
	"math/big"

	"repro/internal/bits"
	"repro/internal/grid"
	"repro/internal/parallel"
)

// Universe is a d-dimensional grid with side 2^(ks[i]) along dimension i.
type Universe struct {
	ks    []int
	n     uint64
	sides []uint32
}

// New builds a rectangular universe. Each k_i must be >= 1 (degenerate
// single-cell dimensions have no neighbor structure) and Σ k_i <= 62.
func New(ks ...int) (*Universe, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("rect: no dimensions")
	}
	total := 0
	for i, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("rect: k[%d] = %d, need >= 1", i, k)
		}
		total += k
	}
	if total > bits.MaxKeyBits {
		return nil, fmt.Errorf("rect: Σk = %d exceeds %d bits", total, bits.MaxKeyBits)
	}
	u := &Universe{ks: append([]int(nil), ks...), n: 1 << uint(total)}
	u.sides = make([]uint32, len(ks))
	for i, k := range ks {
		u.sides[i] = 1 << uint(k)
	}
	return u, nil
}

// MustNew is New for known-good shapes. It panics iff New would return an
// error (no dimensions, a negative exponent, or a total cell count
// overflowing uint64), so it is safe exactly for literal shape lists in
// tests and examples; code handling caller-supplied shapes must use New and
// propagate the error.
func MustNew(ks ...int) *Universe {
	u, err := New(ks...)
	if err != nil {
		panic(err)
	}
	return u
}

// D returns the dimensionality.
func (u *Universe) D() int { return len(u.ks) }

// N returns the cell count 2^Σk.
func (u *Universe) N() uint64 { return u.n }

// Side returns the side length along dimension i.
func (u *Universe) Side(i int) uint32 { return u.sides[i] }

// K returns k_i.
func (u *Universe) K(i int) int { return u.ks[i] }

// MaxSide returns the longest side.
func (u *Universe) MaxSide() uint32 {
	m := u.sides[0]
	for _, s := range u.sides[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

// String implements fmt.Stringer.
func (u *Universe) String() string {
	s := "rect("
	for i, k := range u.ks {
		if i > 0 {
			s += "×"
		}
		s += fmt.Sprintf("2^%d", k)
	}
	return s + ")"
}

// NewPoint returns a zeroed point of the right arity.
func (u *Universe) NewPoint() grid.Point { return make(grid.Point, len(u.ks)) }

// Contains reports whether p is a cell.
func (u *Universe) Contains(p grid.Point) bool {
	if len(p) != len(u.ks) {
		return false
	}
	for i, v := range p {
		if v >= u.sides[i] {
			return false
		}
	}
	return true
}

// Linear returns the mixed-radix row-major index with dimension 1 least
// significant (the rectangular analogue of eq. 8).
func (u *Universe) Linear(p grid.Point) uint64 {
	var idx uint64
	for i := len(p) - 1; i >= 0; i-- {
		idx = idx<<uint(u.ks[i]) | uint64(p[i])
	}
	return idx
}

// FromLinear inverts Linear into dst.
func (u *Universe) FromLinear(idx uint64, dst grid.Point) {
	for i := range dst {
		dst[i] = uint32(idx & uint64(u.sides[i]-1))
		idx >>= uint(u.ks[i])
	}
}

// Degree returns the number of Manhattan-1 neighbors of p.
func (u *Universe) Degree(p grid.Point) int {
	deg := 0
	for i, v := range p {
		if v > 0 {
			deg++
		}
		if v+1 < u.sides[i] {
			deg++
		}
	}
	return deg
}

// Curve is a bijection over the rectangular universe.
type Curve interface {
	Universe() *Universe
	Index(p grid.Point) uint64
	Point(idx uint64, dst grid.Point)
	Name() string
}

// RowMajor is the rectangular simple curve.
type RowMajor struct{ u *Universe }

// NewRowMajor returns the row-major curve over u.
func NewRowMajor(u *Universe) *RowMajor { return &RowMajor{u: u} }

// Universe implements Curve.
func (r *RowMajor) Universe() *Universe { return r.u }

// Name implements Curve.
func (r *RowMajor) Name() string { return "rect-rowmajor" }

// Index implements Curve.
func (r *RowMajor) Index(p grid.Point) uint64 { return r.u.Linear(p) }

// Point implements Curve.
func (r *RowMajor) Point(idx uint64, dst grid.Point) { r.u.FromLinear(idx, dst) }

// CompactZ is the rectangular Z curve: bits are interleaved round-robin
// from the least significant level upward, skipping dimensions whose bits
// are exhausted — the standard "compact Morton" construction for
// anisotropic grids. When all k_i are equal it coincides (up to the
// paper's dimension order) with the cubic Z curve.
type CompactZ struct {
	u *Universe
	// shifts[level*d + i] gives the key bit position of coordinate bit
	// `level` of dimension i, or -1 when k_i <= level.
	shifts []int8
	maxK   int
}

// NewCompactZ returns the compact Z curve over u.
func NewCompactZ(u *Universe) *CompactZ {
	d := u.D()
	maxK := 0
	for i := 0; i < d; i++ {
		if u.K(i) > maxK {
			maxK = u.K(i)
		}
	}
	c := &CompactZ{u: u, shifts: make([]int8, maxK*d), maxK: maxK}
	pos := int8(0)
	for level := 0; level < maxK; level++ {
		for i := 0; i < d; i++ {
			if level < u.K(i) {
				c.shifts[level*d+i] = pos
				pos++
			} else {
				c.shifts[level*d+i] = -1
			}
		}
	}
	return c
}

// Universe implements Curve.
func (c *CompactZ) Universe() *Universe { return c.u }

// Name implements Curve.
func (c *CompactZ) Name() string { return "rect-z" }

// Index implements Curve.
func (c *CompactZ) Index(p grid.Point) uint64 {
	d := c.u.D()
	var key uint64
	for level := 0; level < c.maxK; level++ {
		for i := 0; i < d; i++ {
			if sh := c.shifts[level*d+i]; sh >= 0 {
				key |= (uint64(p[i]>>uint(level)) & 1) << uint8(sh)
			}
		}
	}
	return key
}

// Point implements Curve.
func (c *CompactZ) Point(idx uint64, dst grid.Point) {
	d := c.u.D()
	for i := range dst {
		dst[i] = 0
	}
	for level := 0; level < c.maxK; level++ {
		for i := 0; i < d; i++ {
			if sh := c.shifts[level*d+i]; sh >= 0 {
				dst[i] |= uint32(idx>>uint8(sh)&1) << uint(level)
			}
		}
	}
}

// DAvg computes the exact average NN-stretch of a rectangular curve, in
// parallel (Definitions 1-2 applied to the rectangular neighbor relation).
// Each chunk sums S(α) = Σ_{β∈N(α)} Δπ(α, β) per degree g in integers, so
// Davg = (1/n)·Σ_g T_g/g is formed exactly and rounded once, at any worker
// count. Every side is at least 2, so g ∈ [d, 2d]; T_g ≤ 2d·n² stays within
// uint64 for every universe small enough to sweep.
func DAvg(c Curve, workers int) float64 {
	u := c.Universe()
	n := u.N()
	d := u.D()
	parts := parallel.MapRanges(n, workers, func(lo, hi uint64) []uint64 {
		p := u.NewPoint()
		q := u.NewPoint()
		sums := make([]uint64, d+1) // T_g at g−d
		for lin := lo; lin < hi; lin++ {
			u.FromLinear(lin, p)
			base := c.Index(p)
			var sum uint64
			deg := 0
			copy(q, p)
			for i := 0; i < d; i++ {
				if p[i] > 0 {
					q[i] = p[i] - 1
					sum += absDiff(base, c.Index(q))
					deg++
					q[i] = p[i]
				}
				if p[i]+1 < u.Side(i) {
					q[i] = p[i] + 1
					sum += absDiff(base, c.Index(q))
					deg++
					q[i] = p[i]
				}
			}
			sums[deg-d] += sum
		}
		return sums
	})
	// Over the common denominator L = d·(d+1)···2d: n·L·Davg = Σ_g T_g·(L/g).
	l, num, w, x := big.NewInt(1), new(big.Int), new(big.Int), new(big.Int)
	for g := d; g <= 2*d; g++ {
		l.Mul(l, x.SetInt64(int64(g)))
	}
	for g := d; g <= 2*d; g++ {
		var t uint64
		for _, sums := range parts {
			t += sums[g-d]
		}
		w.Quo(l, x.SetInt64(int64(g)))
		num.Add(num, w.Mul(w, x.SetUint64(t)))
	}
	f, _ := new(big.Rat).SetFrac(num, l.Mul(l, x.SetUint64(n))).Float64()
	return f
}

// NNAvgLowerBound returns the generalized Theorem 1 bound for rectangular
// universes: (2/(3d)) · (n²−1)/(n·s_max). For a cube it equals the paper's
// (2/3d)(n^(1−1/d) − n^(−1−1/d)).
func NNAvgLowerBound(u *Universe) float64 {
	n := float64(u.N())
	return 2 / (3 * float64(u.D())) * (n*n - 1) / (n * float64(u.MaxSide()))
}

// RowMajorDAvgExact returns the exact Davg of the rectangular row-major
// curve by the boundary-subset closed form, generalizing the cubic formula:
// with stride_i = Π_{j<i} s_j,
//
//	Davg = (1/n) Σ_{B ⊆ dims} (Π_{i∈B} 2)(Π_{i∉B} (s_i−2)) ·
//	       (2 Σ_{i∉B} stride_i + Σ_{i∈B} stride_i) / (2d − |B|).
func RowMajorDAvgExact(u *Universe) float64 {
	d := u.D()
	strides := make([]float64, d)
	stride := 1.0
	for i := 0; i < d; i++ {
		strides[i] = stride
		stride *= float64(u.Side(i))
	}
	var total float64
	for mask := 0; mask < 1<<uint(d); mask++ {
		cells := 1.0
		var wsum float64
		size := 0
		for i := 0; i < d; i++ {
			if mask&(1<<uint(i)) != 0 {
				cells *= 2
				wsum += strides[i]
				size++
			} else {
				cells *= float64(u.Side(i)) - 2
				wsum += 2 * strides[i]
			}
		}
		if cells == 0 {
			continue
		}
		total += cells * wsum / float64(2*d-size)
	}
	return total / float64(u.N())
}

// Validate checks bijectivity of a rectangular curve by full enumeration.
func Validate(c Curve) error {
	u := c.Universe()
	n := u.N()
	seen := make([]uint64, (n+63)/64)
	p := u.NewPoint()
	q := u.NewPoint()
	for lin := uint64(0); lin < n; lin++ {
		u.FromLinear(lin, p)
		idx := c.Index(p)
		if idx >= n {
			return fmt.Errorf("rect: %s Index(%v) = %d out of range", c.Name(), p, idx)
		}
		if seen[idx/64]&(1<<(idx%64)) != 0 {
			return fmt.Errorf("rect: %s assigns index %d twice", c.Name(), idx)
		}
		seen[idx/64] |= 1 << (idx % 64)
		c.Point(idx, q)
		if !q.Equal(p) {
			return fmt.Errorf("rect: %s Point(Index(%v)) = %v", c.Name(), p, q)
		}
	}
	return nil
}

func absDiff(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}
