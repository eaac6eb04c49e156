// Package bounds implements the closed-form quantities proved in the paper:
// the universal lower bounds on stretch (Theorem 1, Propositions 1 and 3),
// the asymptotic stretch of the Z and simple curves (Theorems 2 and 3), the
// per-dimension Z-curve sums of Lemma 5 in exact finite-n form, the exact
// finite-n average NN-stretch of the simple curve, and the Lemma 2 identity.
//
// Everywhere, d is the number of dimensions, k the log2 side length,
// s = 2^k the side length, and n = 2^(k·d) the universe size, matching §III
// of the paper.
package bounds

import (
	"math"
	"math/big"

	"repro/internal/grid"
)

// Side returns s = 2^k.
func Side(k int) uint64 { return 1 << uint(k) }

// N returns n = 2^(k·d).
func N(d, k int) uint64 { return 1 << uint(d*k) }

// NPow1m1d returns n^(1−1/d) = s^(d−1) exactly.
func NPow1m1d(d, k int) uint64 { return grid.Pow64(Side(k), d-1) }

// NNAvgLowerBound returns the Theorem 1 lower bound on the average-average
// nearest-neighbor stretch of any SFC:
//
//	Davg(π) ≥ (2/(3d)) · (n^(1−1/d) − n^(−1−1/d)).
func NNAvgLowerBound(d, k int) float64 {
	n := float64(N(d, k))
	e := 1 - 1/float64(d)
	return 2 / (3 * float64(d)) * (math.Pow(n, e) - math.Pow(n, -1-1/float64(d)))
}

// NNMaxLowerBound returns the Proposition 1 lower bound on the
// average-maximum NN-stretch; Dmax(π) ≥ Davg(π), so it equals the Theorem 1
// bound.
func NNMaxLowerBound(d, k int) float64 { return NNAvgLowerBound(d, k) }

// NNAsymptote returns (1/d)·n^(1−1/d): the common asymptotic
// average-average NN-stretch of the Z curve (Theorem 2) and the simple
// curve (Theorem 3).
func NNAsymptote(d, k int) float64 {
	return float64(NPow1m1d(d, k)) / float64(d)
}

// OptimalityFactor is the paper's headline constant: the Z and simple
// curves' asymptotic Davg is exactly 1.5 times the Theorem 1 lower bound,
// irrespective of d.
const OptimalityFactor = 1.5

// Lemma5Limit returns the limit of Λ_i(Z)/n^(2−1/d) as n → ∞ for the
// 1-based dimension i (Lemma 5): 2^(d−i)/(2^d − 1).
func Lemma5Limit(d, i int) float64 {
	return float64(uint64(1)<<uint(d-i)) / float64(uint64(1)<<uint(d)-1)
}

// ZLambdaExact returns the exact finite-n value of Λ_i(Z) for the 1-based
// dimension i, from the decomposition in the proof of Lemma 5:
//
//	Λ_i(Z) = Σ_{j=1}^{k} |G_{i,j}| · (2^(jd−i) − Σ_{ℓ=1}^{j−1} 2^(ℓd−i)),
//	|G_{i,j}| = 2^(k−j) · n^(1−1/d).
//
// The result is returned as a big.Int since Λ_i grows like n^(2−1/d).
func ZLambdaExact(d, k, i int) *big.Int {
	total := new(big.Int)
	if k == 0 {
		return total
	}
	perOther := new(big.Int).Lsh(big.NewInt(1), uint(k*(d-1))) // n^(1-1/d)
	for j := 1; j <= k; j++ {
		// Curve distance for pairs in G_{i,j}.
		dist := new(big.Int).Lsh(big.NewInt(1), uint(j*d-i))
		for l := 1; l <= j-1; l++ {
			dist.Sub(dist, new(big.Int).Lsh(big.NewInt(1), uint(l*d-i)))
		}
		// Count of pairs in G_{i,j}.
		count := new(big.Int).Lsh(big.NewInt(1), uint(k-j))
		count.Mul(count, perOther)
		total.Add(total, count.Mul(count, dist))
	}
	return total
}

// ZSumNNExact returns the exact Σ_{(α,β)∈NN_d} ΔZ(α,β) = Σ_i Λ_i(Z).
func ZSumNNExact(d, k int) *big.Int {
	total := new(big.Int)
	for i := 1; i <= d; i++ {
		total.Add(total, ZLambdaExact(d, k, i))
	}
	return total
}

// SimpleDAvgExact returns the exact finite-n Davg of the simple curve.
//
// For a cell whose set of "boundary dimensions" is B (coordinate 0 or s−1),
// the neighbor along dimension i sits at curve distance s^(i−1), dimensions
// in B contribute one neighbor and the rest two, so
//
//	δavg = (2 Σ_{i∉B} s^(i−1) + Σ_{i∈B} s^(i−1)) / (2d − |B|).
//
// Summing over cells grouped by |B| (there are C(d,m)·2^m·(s−2)^(d−m) cells
// with |B| = m, and the coordinate sums telescope through the binomials):
//
//	Davg(S) = (T/n) Σ_{m=0}^{d} [2^m (s−2)^(d−m) / (2d−m)] ·
//	          (2·C(d−1,m) + C(d−1,m−1)),
//
// with T = Σ_{i=1}^{d} s^(i−1) = (n−1)/(s−1). Theorem 3 is the statement
// that this quantity is asymptotically (1/d)·n^(1−1/d). It is SimpleDAvgRat
// rounded to float64.
func SimpleDAvgExact(d, k int) float64 {
	f, _ := SimpleDAvgRat(d, k).Float64()
	return f
}

// SimpleDAvgRat returns SimpleDAvgExact's formula as an exact rational:
// every term of it is a ratio of integers.
func SimpleDAvgRat(d, k int) *big.Rat {
	sum := new(big.Rat)
	if k == 0 {
		return sum // single cell, no neighbors
	}
	s := new(big.Int).SetUint64(Side(k))
	s2 := new(big.Int).Sub(s, big.NewInt(2))
	for m := 0; m <= d; m++ {
		w := 2*binom(d-1, m) + binom(d-1, m-1)
		if w == 0 {
			continue
		}
		cells := new(big.Int).Lsh(new(big.Int).Exp(s2, big.NewInt(int64(d-m)), nil), uint(m))
		cells.Mul(cells, new(big.Int).SetUint64(w))
		sum.Add(sum, new(big.Rat).SetFrac(cells, big.NewInt(int64(2*d-m))))
	}
	// T/n = (n−1)/((s−1)·n)
	n := N(d, k)
	num := new(big.Int).SetUint64(n - 1)
	den := new(big.Int).SetUint64(Side(k) - 1)
	den.Mul(den, new(big.Int).SetUint64(n))
	return sum.Mul(sum, new(big.Rat).SetFrac(num, den))
}

// SimpleDMaxExact returns the exact Dmax of the simple curve
// (Proposition 2): n^(1−1/d), for k >= 1.
func SimpleDMaxExact(d, k int) float64 {
	if k == 0 {
		return 0
	}
	return float64(NPow1m1d(d, k))
}

// AllPairsManhattanLB returns the Proposition 3 lower bound on the average
// all-pairs stretch under the Manhattan metric, for any SFC:
//
//	str_avg,M(π) ≥ (1/(3d)) · (n+1)/(s−1).
func AllPairsManhattanLB(d, k int) float64 {
	n := float64(N(d, k))
	s := float64(Side(k))
	return (n + 1) / (3 * float64(d) * (s - 1))
}

// AllPairsEuclideanLB returns the Proposition 3 lower bound under the
// Euclidean metric: str_avg,E(π) ≥ (1/(3√d)) · (n+1)/(s−1).
func AllPairsEuclideanLB(d, k int) float64 {
	n := float64(N(d, k))
	s := float64(Side(k))
	return (n + 1) / (3 * math.Sqrt(float64(d)) * (s - 1))
}

// SimpleAllPairsManhattanUB returns the Proposition 4 upper bound on the
// simple curve's average all-pairs Manhattan stretch: n^(1−1/d). By
// Lemma 7 the bound in fact holds pair by pair.
func SimpleAllPairsManhattanUB(d, k int) float64 {
	return float64(NPow1m1d(d, k))
}

// SimpleAllPairsEuclideanUB returns the Proposition 4 upper bound under the
// Euclidean metric: √2 · n^(1−1/d).
func SimpleAllPairsEuclideanUB(d, k int) float64 {
	return math.Sqrt2 * float64(NPow1m1d(d, k))
}

// SAPrimeIdentity returns Lemma 2's value of S_{A′}(π) for any SFC π over
// n cells: (n−1)·n·(n+1)/3.
func SAPrimeIdentity(n uint64) *big.Int {
	bn := new(big.Int).SetUint64(n)
	r := new(big.Int).SetUint64(n - 1)
	r.Mul(r, bn)
	r.Mul(r, new(big.Int).SetUint64(n+1))
	return r.Div(r, big.NewInt(3))
}

// RandomCurveExpectedDelta returns the expected curve distance between two
// distinct cells under a uniformly random bijection: (n+1)/3. It follows
// from Lemma 2 — the average of Δπ over ordered pairs is S_{A′}/(n(n−1)) —
// and is the baseline against which the structured curves' Θ(n^(1−1/d))
// NN-stretch should be compared.
func RandomCurveExpectedDelta(n uint64) float64 {
	return (float64(n) + 1) / 3
}

// binom returns C(a, b) as uint64, 0 when b < 0 or b > a.
func binom(a, b int) uint64 {
	if b < 0 || b > a {
		return 0
	}
	if b > a-b {
		b = a - b
	}
	r := uint64(1)
	for i := 0; i < b; i++ {
		r = r * uint64(a-i) / uint64(i+1)
	}
	return r
}

// GrayLambdaLimit returns the conjectured limit of Λ_i(Gray)/n^(2−1/d) for
// the 1-based dimension i and d >= 2:
//
//	Λ_i(Gray)/n^(2−1/d) → 2^(d−i−1)/(2^(d−1) − 1).
//
// This is an empirical contribution of the reproduction (experiment
// ext-constants and TestGrayLambdaLimitConjecture): the harness measures
// the per-dimension sums of the Gray-code curve converging to these values
// at every d ∈ {2,3,4}, mirroring Lemma 5's result for the Z curve. A proof
// by the paper's Λ-sum technique appears routine (the Gray rank difference
// of a G_{i,j} pair telescopes like the Z key difference, with the carry
// block contributing once more at the top bit).
func GrayLambdaLimit(d, i int) float64 {
	return float64(uint64(1)<<uint(d-i)) / (2 * float64(uint64(1)<<uint(d-1)-1))
}

// GrayAsymptoticConstant returns the conjectured asymptotic stretch
// constant of the Gray-code curve for d >= 2:
//
//	C(Gray, d) = lim Davg(Gray)·d/n^(1−1/d) = (2^d − 1)/(2^d − 2),
//
// the sum of the GrayLambdaLimit values — i.e. the Gray curve is worse than
// the Z curve by exactly 1 + 1/(2^d − 2), a factor that vanishes as the
// dimension grows.
func GrayAsymptoticConstant(d int) float64 {
	return float64(uint64(1)<<uint(d)-1) / float64(uint64(1)<<uint(d)-2)
}
