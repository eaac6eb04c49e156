package core

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/parallel"
)

// MaxExactPairsN bounds the universe size for the exact O(n²) all-pairs
// table (NewPairTable); beyond it the sampled estimators must be used.
const MaxExactPairsN = 1 << 15

// Metric selects the high-dimensional distance used by the all-pairs
// stretch (§V.B of the paper).
type Metric int

const (
	// Manhattan is Δ(α, β) = Σ|α_i − β_i|.
	Manhattan Metric = iota
	// Euclidean is Δ_E(α, β) = sqrt(Σ(α_i − β_i)²).
	Euclidean
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Manhattan:
		return "manhattan"
	case Euclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// PairTable holds, for every offset v = β − α between two cells of one
// curve's universe, integer sums of Δπ(α, β) over the pairs (α, α+v). Every
// all-pairs metric of the paper — S_A′ (Lemma 2), the average stretch
// (Propositions 3 and 4), the worst pair (Lemma 7) — and of its extensions —
// Dai & Su's p-norms, the Gotsman–Lindenbaum converse, the dilation constant
// — depends on a pair only through Δπ and v, and every distance Δ(α, β) is a
// function of v. So each metric is one read of the table, one method each.
//
// The table keeps the offsets v > 0 in Linear order: v and −v give the same
// unordered pairs. An offset is a cell of the offset grid of side 2s−1, with
// Linear index Σ (v_i + s − 1)·(2s−1)^i, and v > 0 exactly when that index
// lies above the grid's centre.
type PairTable struct {
	u    *grid.Universe
	rows []pairRow // rows[j]: the offset of offset-grid index centre+1+j
}

// pairRow is the table's record for one offset v. With n ≤ MaxExactPairsN =
// 2^15, Δπ < 2^15 and an offset has fewer than 2^15 pairs, so S₃ < 2^60 and
// every Δπ⁴ < 2^60; only S₄ needs 128 bits.
type pairRow struct {
	l1, l2     uint64 // |v|₁ and ‖v‖₂²
	s1, s2, s3 uint64 // S_p(v) = Σ Δπ^p over the pairs (α, α+v), p = 1, 2, 3
	s4         u128   // S₄(v)
	min, max   uint64 // least and largest Δπ over those pairs
}

// NewPairTable builds c's table in one integer pass over the offsets,
// parallel over offsets. Each offset owns its row, so there is nothing to
// merge and the table does not depend on the worker count. It returns an
// error when n exceeds MaxExactPairsN (use SampledAllPairsStretch instead)
// or the universe has a single cell.
func NewPairTable(c curve.Curve, workers int) (*PairTable, error) {
	u := c.Universe()
	n := u.N()
	if n > MaxExactPairsN {
		return nil, fmt.Errorf("core: exact all-pairs table over n=%d exceeds limit %d", n, MaxExactPairsN)
	}
	if n < 2 {
		return nil, fmt.Errorf("core: all-pairs metrics undefined for n=%d", n)
	}
	keys := linearKeys(c)
	s := int64(u.Side())
	side, cells := 2*s-1, int64(1) // the offset grid
	for range u.D() {
		cells *= side
	}
	t := &PairTable{u: u, rows: make([]pairRow, cells/2)}
	parallel.ForChunked(uint64(len(t.rows)), workers, func(lo, hi uint64) {
		v := make([]int64, u.D())
		for j := lo; j < hi; j++ {
			o := cells/2 + 1 + int64(j)
			for i := range v {
				v[i] = o%side - (s - 1)
				o /= side
			}
			t.rows[j] = scanOffset(keys, uint(u.K()), v)
		}
	})
	return t, nil
}

// linearKeys returns the curve key of every cell in Linear order, from one
// batched encode (the kernel fast path when the curve has one).
func linearKeys(c curve.Curve) []uint64 {
	u := c.Universe()
	n := u.N()
	keys := make([]uint64, n)
	coords := make([]uint32, n*uint64(u.D()))
	fillBlockCoords(u, 0, int(n), coords)
	curve.NewBatcher(c).IndexBatch(coords, keys)
	return keys
}

// scanOffset sums over the pairs (α, α+v) of a universe of side 2^k whose
// keys are in Linear order. The cells α form a box; in Linear order they
// come in runs along dimension 0, one per row of the box, and the cells α+v
// are the same runs shifted by v's Linear distance. So each row is two
// contiguous slices of keys.
func scanOffset(keys []uint64, k uint, v []int64) pairRow {
	s := int64(1) << k
	r := pairRow{min: ^uint64(0)}
	var shift, corner int64 // v's Linear distance; the box's first cell
	for i := len(v) - 1; i >= 0; i-- {
		a := max(v[i], -v[i])
		r.l1 += uint64(a)
		r.l2 += uint64(a * a)
		shift = shift*s + v[i]
		corner = corner*s + max(0, -v[i])
	}
	r.addBox(keys, k, v, len(v)-1, corner, shift)
	return r
}

// addBox adds the rows of the box over dimensions 1…i whose first cell is
// at: s−|v_i| slices of it, s^i cells apart.
func (r *pairRow) addBox(keys []uint64, k uint, v []int64, i int, at, shift int64) {
	if i == 0 {
		run := int64(1)<<k - max(v[0], -v[0])
		r.addRun(keys[at:at+run], keys[at+shift:at+shift+run])
		return
	}
	for range int64(1)<<k - max(v[i], -v[i]) {
		r.addBox(keys, k, v, i-1, at, shift)
		at += 1 << (k * uint(i))
	}
}

// addRun adds the pairs (a[x], b[x]) of one row.
func (r *pairRow) addRun(a, b []uint64) {
	s1, s2, s3, s4, lo, hi := r.s1, r.s2, r.s3, r.s4, r.min, r.max
	b = b[:len(a)]
	for x, ka := range a {
		dd := absDiff(ka, b[x])
		sq := dd * dd
		s1, s2, s3 = s1+dd, s2+sq, s3+sq*dd
		var c uint64
		s4.lo, c = bits.Add64(s4.lo, sq*sq, 0)
		s4.hi += c
		lo, hi = min(lo, dd), max(hi, dd)
	}
	r.s1, r.s2, r.s3, r.s4, r.min, r.max = s1, s2, s3, s4, lo, hi
}

// sum returns the row's S_p(v), p = 1…4.
func (r *pairRow) sum(p int) u128 {
	switch p {
	case 1:
		return u128{lo: r.s1}
	case 2:
		return u128{lo: r.s2}
	case 3:
		return u128{lo: r.s3}
	}
	return r.s4
}

// dist returns Δ(α, α+v) under m.
func (r *pairRow) dist(m Metric) float64 {
	if m == Manhattan {
		return float64(r.l1)
	}
	return math.Sqrt(float64(r.l2))
}

// pairs returns C(n, 2), the number of unordered pairs.
func (t *PairTable) pairs() uint64 {
	n := t.u.N()
	return n * (n - 1) / 2
}

// SAPrime returns S_{A′}(π), the sum of Δπ over ordered pairs: 2·Σ_v S₁(v).
// Lemma 2 states it equals (n−1)n(n+1)/3 for every bijection π. n is capped
// at MaxExactPairsN, which keeps it within uint64.
func (t *PairTable) SAPrime() uint64 {
	var s uint64
	for i := range t.rows {
		s += t.rows[i].s1
	}
	return 2 * s
}

// Avg returns the average all-pairs stretch under m (§V.B):
//
//	str_avg(π) = (2/(n(n−1))) Σ_{(α,β) ∈ A} Δπ(α, β) / Δ(α, β),
//
// which is PNorm(m, 1). Under Manhattan it is PNormRat(1) rounded once.
func (t *PairTable) Avg(m Metric) float64 {
	v, _ := t.PNorm(m, 1)
	return v
}

// PNorm returns the p-norm all-pairs stretch of Dai & Su ([7, 8] in the
// paper's related work) under m, for p = 1…4:
//
//	str_p(π) = ( (2/(n(n−1))) Σ_{(α,β) ∈ A} (Δπ(α,β)/Δ(α,β))^p )^(1/p).
//
// str_1 is Avg; growing p weights the badly stretched pairs more heavily,
// towards MaxPair as p → ∞. Under Manhattan the mean is PNormRat(p) rounded
// once. Under Euclidean it is irrational: each ‖v‖² class is rounded once
// and the classes are added in increasing ‖v‖², so it too is independent of
// the worker count.
func (t *PairTable) PNorm(m Metric, p int) (float64, error) {
	if err := checkP(p); err != nil {
		return 0, err
	}
	var mean float64
	if m == Manhattan {
		x, _ := t.PNormRat(p)
		mean, _ = x.Float64()
	} else {
		mean = t.euclideanSum(p) / float64(t.pairs())
	}
	if p == 1 {
		return mean, nil
	}
	return math.Pow(mean, 1/float64(p)), nil
}

// PNormRat returns str_p(π)^p under the Manhattan metric as an exact
// rational, p = 1…4:
//
//	str_p(π)^p = (1/C(n, 2)) Σ_v S_p(v) / |v|₁^p.
//
// The offsets are grouped by |v|₁ = m ≤ d(s−1) = M, and the classes are
// added over one common denominator L^p, L = lcm(1…M): the numerator is
// Σ_m T_m·(L^p/m^p), and m^p fits in one word. A running big.Rat sum would
// reduce by a gcd at each of the M classes, thousands of them at d = 1.
func (t *PairTable) PNormRat(p int) (*big.Rat, error) {
	if err := checkP(p); err != nil {
		return nil, err
	}
	cls := make([]u128, t.u.D()*int(t.u.Side()-1)+1)
	for i := range t.rows {
		r := &t.rows[i]
		cls[r.l1].add(r.sum(p))
	}
	l := lcmUpTo(len(cls) - 1)
	den := l.Exp(l, big.NewInt(int64(p)), nil)
	num, w, x := new(big.Int), new(big.Int), new(big.Int)
	for m := uint64(1); m < uint64(len(cls)); m++ {
		mp := m // m^p < 2^60, one word
		for range p - 1 {
			mp *= m
		}
		w.Quo(den, x.SetUint64(mp))
		num.Add(num, w.Mul(w, cls[m].big()))
	}
	return new(big.Rat).SetFrac(num, den.Mul(den, x.SetUint64(t.pairs()))), nil
}

// euclideanSum returns Σ_v S_p(v)/‖v‖₂^p: each ‖v‖² class is rounded once
// and the classes are added in increasing ‖v‖², with compensation.
func (t *PairTable) euclideanSum(p int) float64 {
	type class struct {
		q   uint64
		sum u128
	}
	cls := make([]class, len(t.rows))
	for i := range t.rows {
		cls[i] = class{t.rows[i].l2, t.rows[i].sum(p)}
	}
	slices.SortFunc(cls, func(a, b class) int { return cmp.Compare(a.q, b.q) })
	var total, comp float64 // Kahan: thousands of classes of like size
	for i := 0; i < len(cls); {
		q, sum := cls[i].q, u128{}
		for ; i < len(cls) && cls[i].q == q; i++ {
			sum.add(cls[i].sum)
		}
		y := sum.float()/math.Pow(float64(q), float64(p)/2) - comp
		next := total + y
		comp = (next - total) - y
		total = next
	}
	return total
}

// checkP rejects the p-norms the table has no sums for.
func checkP(p int) error {
	if p < 1 || p > 4 {
		return fmt.Errorf("core: p-norm needs p in 1…4, got %d", p)
	}
	return nil
}

// lcmUpTo returns lcm(1, …, m).
func lcmUpTo(m int) *big.Int {
	l, g, x := big.NewInt(1), new(big.Int), new(big.Int)
	for i := 2; i <= m; i++ {
		x.SetInt64(int64(i))
		l.Mul(l, x.Quo(x, g.GCD(nil, nil, l, x)))
	}
	return l
}

// MaxPair returns the largest pair stretch, max over pairs of Δπ/Δ under m
// — Lemma 7 bounds it for the simple curve. Per offset the worst pair is
// the one farthest apart on the curve.
func (t *PairTable) MaxPair(m Metric) float64 {
	var best float64
	for i := range t.rows {
		r := &t.rows[i]
		best = max(best, float64(r.max)/r.dist(m))
	}
	return best
}

// Converse measures the opposite direction from the paper's stretch — the
// question of Gotsman & Lindenbaum ([11]): how far apart in space can two
// cells be, relative to their distance along the curve? It returns the
// maximum over pairs of
//
//	Δ_E(α, β) / Δπ(α, β)^(1/d),
//
// the natural normalization since an index interval of length m can span a
// region of diameter at most O(m^(1/d)). Unit-step curves with good
// locality (Hilbert) keep this ratio small; the Z curve's jumps make it
// large. The paper notes ([20], [11]) that a small converse stretch does
// NOT imply a small forward stretch — this metric lets the harness
// demonstrate that contrast. Per offset the worst pair is the one closest
// on the curve.
func (t *PairTable) Converse() float64 {
	invD := 1 / float64(t.u.D())
	var best float64
	for i := range t.rows {
		r := &t.rows[i]
		best = max(best, r.dist(Euclidean)/math.Pow(float64(r.min), invD))
	}
	return best
}

// Dilation returns, for a unit-step curve, the maximum over index pairs
// (i, j) of Δ(π⁻¹(i), π⁻¹(j))^d / |i−j| — the worst-case constant in
// Niedermeier, Reinhardt & Sanders' style bounds ("Manhattan distance is at
// most c·|i−j|^(1/d)", [20] in the paper; they prove c^d ≤ 9 for the 2-d
// Hilbert curve in the form Δ ≤ 3·sqrt(i−j)). Per offset the worst pair is
// the one closest on the curve.
func (t *PairTable) Dilation() float64 {
	var best float64
	for i := range t.rows {
		r := &t.rows[i]
		pow := uint64(1)
		for range t.u.D() {
			pow *= r.l1
		}
		best = max(best, float64(pow)/float64(r.min))
	}
	return best
}

// SAPrimeIdentity returns the Lemma 2 value (n−1)n(n+1)/3 as a big.Int
// (it exceeds uint64 for n ≥ 2^21).
func SAPrimeIdentity(n uint64) *big.Int {
	bn := new(big.Int).SetUint64(n)
	r := new(big.Int).SetUint64(n - 1)
	r.Mul(r, bn)
	r.Mul(r, new(big.Int).SetUint64(n+1))
	return r.Div(r, big.NewInt(3))
}

// SampledStretch is the result of a sampled all-pairs stretch estimate.
type SampledStretch struct {
	Mean    float64 // sample mean of Δπ/Δ over sampled pairs
	StdErr  float64 // standard error of the mean
	Samples int     // number of pairs sampled
}

// SampledAllPairsStretch estimates str_avg(π) by sampling unordered pairs
// of distinct cells uniformly at random (deterministically from seed).
func SampledAllPairsStretch(c curve.Curve, m Metric, samples int, seed int64) (SampledStretch, error) {
	u := c.Universe()
	n := u.N()
	if n < 2 {
		return SampledStretch{}, fmt.Errorf("core: all-pairs stretch undefined for n=%d", n)
	}
	if samples < 2 {
		return SampledStretch{}, fmt.Errorf("core: need at least 2 samples, got %d", samples)
	}
	rng := rand.New(rand.NewSource(seed))
	p := u.NewPoint()
	q := u.NewPoint()
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		la := uint64(rng.Int63n(int64(n)))
		lb := uint64(rng.Int63n(int64(n) - 1))
		if lb >= la {
			lb++
		}
		u.FromLinear(la, p)
		u.FromLinear(lb, q)
		dPi := float64(curve.Dist(c, p, q))
		var dist float64
		switch m {
		case Manhattan:
			dist = float64(grid.Manhattan(p, q))
		case Euclidean:
			dist = grid.Euclidean(p, q)
		}
		v := dPi / dist
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(samples)
	variance := (sumSq - sum*mean) / float64(samples-1)
	if variance < 0 {
		variance = 0
	}
	return SampledStretch{
		Mean:    mean,
		StdErr:  math.Sqrt(variance / float64(samples)),
		Samples: samples,
	}, nil
}
