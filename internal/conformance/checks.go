package conformance

import (
	"fmt"
	"math"
	"math/big"
	"slices"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// relEps is the relative slack for comparisons against bounds and
// estimators, whose two sides are computed through different float
// expressions. The exact engines are compared with equality: they round an
// exact rational once, so equal inputs give equal bits.
const relEps = 1e-9

// cmpNN requires two stretch results to be equal.
func cmpNN(what string, got, want core.NN) (Status, string) {
	if got != want {
		return Fail, fmt.Sprintf("%s: got (Davg %.17g, Dmax %.17g), want (%.17g, %.17g)", what, got.DAvg, got.DMax, want.DAvg, want.DMax)
	}
	return Pass, ""
}

// --- Invariant layer ---

// checkBijection runs the full-enumeration bijection validation: Index is
// injective onto [0, n) and Point inverts it at every cell.
func checkBijection(cx *caseCtx) (Status, string) {
	if err := curve.Validate(cx.c); err != nil {
		return Fail, err.Error()
	}
	return Pass, ""
}

// checkInverse verifies the other composition: Index(Point(i)) = i for
// every curve position i (Validate covers Point∘Index; together they pin
// the pair as mutually inverse bijections).
func checkInverse(cx *caseCtx) (Status, string) {
	p := cx.u.NewPoint()
	for idx := uint64(0); idx < cx.u.N(); idx++ {
		cx.c.Point(idx, p)
		if !cx.u.Contains(p) {
			return Fail, fmt.Sprintf("Point(%d) = %v outside %v", idx, p, cx.u)
		}
		if got := cx.c.Index(p); got != idx {
			return Fail, fmt.Sprintf("Index(Point(%d)) = %d", idx, got)
		}
	}
	return Pass, ""
}

// checkDeterminism reruns both exact engines at a fixed worker count and
// demands bit-for-bit identical results.
func checkDeterminism(cx *caseCtx) (Status, string) {
	w := cx.cfg.Workers[len(cx.cfg.Workers)-1]
	if st, msg := cmpNN(fmt.Sprintf("NNStretchResult(workers=%d) rerun", w), core.NNStretchResult(cx.c, w), core.NNStretchResult(cx.c, w)); st != Pass {
		return st, msg
	}
	return cmpNN(fmt.Sprintf("NNStretchTorusResult(workers=%d) rerun", w), core.NNStretchTorusResult(cx.c, w), core.NNStretchTorusResult(cx.c, w))
}

// checkWorkerSweep verifies that the parallel reduction is exact: every
// configured worker count gives the same Davg and Dmax.
func checkWorkerSweep(cx *caseCtx) (Status, string) {
	base := core.NNStretchResult(cx.c, cx.cfg.Workers[0])
	for _, w := range cx.cfg.Workers[1:] {
		if st, msg := cmpNN(fmt.Sprintf("workers=%d vs %d", w, cx.cfg.Workers[0]), core.NNStretchResult(cx.c, w), base); st != Pass {
			return st, msg
		}
	}
	return Pass, ""
}

// checkUnitStep pins the classical continuity property for the curves whose
// status is known: Hilbert and snake are unit-step at every (d, k); the
// key-ordered curves (z, simple, table) are unit-step exactly on the line;
// the Gray curve is unit-step exactly when each coordinate is a single bit.
func checkUnitStep(cx *caseCtx) (Status, string) {
	var want bool
	switch cx.c.Name() {
	case "hilbert", "snake":
		want = true
	case "z", "simple", "table", "diagonal":
		want = cx.u.D() == 1
	case "gray":
		want = cx.u.K() == 1
	case "bitrev":
		want = cx.u.D() == 1 && cx.u.K() == 1
	default:
		return Skip, "no unit-step expectation for " + cx.c.Name()
	}
	if got := curve.IsUnitStep(cx.c); got != want {
		return Fail, fmt.Sprintf("IsUnitStep = %v, want %v", got, want)
	}
	return Pass, ""
}

// --- Differential layer ---

// checkSequentialOracle compares the independently-coded sequential sweep
// against the parallel engine: the exact rationals at one worker and at
// full parallelism, and the rounded result.
func checkSequentialOracle(cx *caseCtx) (Status, string) {
	refAvg, refMax, ok := refNNStretch(cx.c)
	if !ok {
		return Skip, "lcm(d…2d)·n overflows the oracle's 64-bit denominator"
	}
	for _, w := range []int{1, 0} {
		davg, dmax := core.NNStretchExact(cx.c, w)
		if davg.Cmp(refAvg) != 0 || dmax.Cmp(refMax) != 0 {
			return Fail, fmt.Sprintf("NNStretchExact(workers=%d) = (%v, %v), oracle (%v, %v)", w, davg, dmax, refAvg, refMax)
		}
	}
	want := rounded(refAvg, refMax)
	if st, msg := cmpNN("oracle vs workers=1", core.NNStretchResult(cx.c, 1), want); st != Pass {
		return st, msg
	}
	return cmpNN("oracle vs parallel", cx.exact(), want)
}

// checkTorusOracle does the same for the periodic-boundary engine, and at
// k = 1 — where wrapping adds no new neighbors — additionally requires the
// torus and open-grid engines to agree on the same numbers.
func checkTorusOracle(cx *caseCtx) (Status, string) {
	refAvg, refMax, ok := refNNStretchTorus(cx.c)
	if !ok {
		return Skip, "lcm(d…2d)·n overflows the oracle's 64-bit denominator"
	}
	want := rounded(refAvg, refMax)
	nn1 := core.NNStretchTorusResult(cx.c, 1)
	if st, msg := cmpNN("torus oracle vs workers=1", nn1, want); st != Pass {
		return st, msg
	}
	if st, msg := cmpNN("torus oracle vs parallel", core.NNStretchTorusResult(cx.c, 0), want); st != Pass {
		return st, msg
	}
	if cx.u.K() == 1 {
		return cmpNN("torus vs open at k=1", nn1, cx.exact())
	}
	return Pass, ""
}

// checkTableShadow materializes the curve into an explicit lookup Table and
// demands the shadow agree with the original bit-for-bit — both pointwise
// (every cell's index) and through the stretch engine, which exercises the
// table-backed code path against the arithmetic implementation.
func checkTableShadow(cx *caseCtx) (Status, string) {
	switch cx.c.(type) {
	case *curve.Table, *curve.Random:
		return Skip, "curve is already table-backed"
	}
	perm := make([]uint64, cx.u.N())
	cx.u.Cells(func(lin uint64, p grid.Point) bool {
		perm[lin] = cx.c.Index(p)
		return true
	})
	shadow, err := curve.NewTable(cx.u, cx.c.Name()+"-shadow", perm)
	if err != nil {
		return Fail, fmt.Sprintf("materializing table shadow: %v", err)
	}
	p := cx.u.NewPoint()
	q := cx.u.NewPoint()
	for idx := uint64(0); idx < cx.u.N(); idx++ {
		cx.c.Point(idx, p)
		shadow.Point(idx, q)
		if !p.Equal(q) {
			return Fail, fmt.Sprintf("shadow Point(%d) = %v, curve gives %v", idx, q, p)
		}
	}
	return cmpNN("shadow", core.NNStretchResult(shadow, 0), cx.exact())
}

// checkKernelBatch drives the curve's kernel layer — IndexBatch and
// PointBatch — pointwise against the scalar Index/Point at every cell. It
// runs for every curve: curves without native kernels exercise the generic
// adapter, which carries the same bit-identity contract.
func checkKernelBatch(cx *caseCtx) (Status, string) {
	u, c := cx.u, cx.c
	d := u.D()
	n := int(u.N())
	coords := make([]uint32, n*d)
	u.Cells(func(lin uint64, p grid.Point) bool {
		copy(coords[int(lin)*d:], p)
		return true
	})
	keys := make([]uint64, n)
	curve.NewBatcher(c).IndexBatch(coords, keys)
	for lin := 0; lin < n; lin++ {
		p := grid.Point(coords[lin*d : (lin+1)*d])
		if want := c.Index(p); keys[lin] != want {
			return Fail, fmt.Sprintf("IndexBatch(%v) = %d, scalar Index = %d", p, keys[lin], want)
		}
	}
	back := make([]uint32, n*d)
	curve.NewBatcher(c).PointBatch(keys, back)
	q := u.NewPoint()
	for lin := 0; lin < n; lin++ {
		c.Point(keys[lin], q)
		if !q.Equal(grid.Point(back[lin*d : (lin+1)*d])) {
			return Fail, fmt.Sprintf("PointBatch(%d) = %v, scalar Point = %v", keys[lin], back[lin*d:(lin+1)*d], q)
		}
	}
	return Pass, ""
}

// checkKernelSweep requires the kernelized stretch engines (batched NN,
// torus and Λ sweeps) to reproduce the scalar reference sweeps bit-for-bit,
// forcing the scalar path via curve.ScalarOnly. Curves without a native
// kernel skip: both sides would take the identical scalar path.
func checkKernelSweep(cx *caseCtx) (Status, string) {
	if !curve.HasKernel(cx.c) {
		return Skip, "curve has no kernel fast path"
	}
	ref := curve.ScalarOnly(cx.c)
	if st, msg := cmpNN("kernel vs scalar sweep", core.NNStretchResult(cx.c, 0), core.NNStretchResult(ref, 0)); st != Pass {
		return st, msg
	}
	if st, msg := cmpNN("kernel torus vs scalar sweep", core.NNStretchTorusResult(cx.c, 0), core.NNStretchTorusResult(ref, 0)); st != Pass {
		return st, msg
	}
	if kl, sl := core.Lambdas(cx.c, 0), core.Lambdas(ref, 0); !slices.Equal(kl, sl) {
		return Fail, fmt.Sprintf("kernel Λ = %v, scalar sweep gives %v", kl, sl)
	}
	return Pass, ""
}

// checkSampledNN verifies the uniform Monte-Carlo estimator converges to
// the exact Davg within its own computed confidence bound. It applies only
// when the sample budget covers the universe (samples ≥ n), where the
// uniform estimator's self-reported standard error is trustworthy even for
// the heavy-tailed hierarchical curves.
func checkSampledNN(cx *caseCtx) (Status, string) {
	n := cx.u.N()
	if uint64(cx.cfg.Samples) < n {
		return Skip, fmt.Sprintf("sample budget %d < n=%d", cx.cfg.Samples, n)
	}
	est, err := core.SampledNNStretch(cx.c, cx.cfg.Samples, cx.cfg.Seed+1)
	if err != nil {
		return Fail, err.Error()
	}
	davg := cx.exact().DAvg
	tol := cx.cfg.SampleZ*est.DAvgStdErr + relEps*(1+davg)
	if diff := math.Abs(est.DAvg - davg); diff > tol {
		return Fail, fmt.Sprintf("sampled Davg %.9g vs exact %.9g: |diff| %.3g > %.1f·stderr %.3g",
			est.DAvg, davg, diff, cx.cfg.SampleZ, est.DAvgStdErr)
	}
	return Pass, ""
}

// checkStratifiedNN verifies the importance-stratified estimator — the
// engine that remains unbiased at astronomically large n — against the
// exact value within a documented relative tolerance.
func checkStratifiedNN(cx *caseCtx) (Status, string) {
	const stratifiedRelTol = 0.15
	d, k := cx.u.D(), cx.u.K()
	perStratum := cx.cfg.Samples / (d * k * 10)
	if perStratum < 200 {
		perStratum = 200
	}
	if d == 1 && uint64(perStratum) < uint64(1)<<uint(k-1) {
		// Below this budget the d=1 estimator samples with replacement;
		// at or above it, it enumerates strata exhaustively and is exact.
		perStratum = 1 << uint(k-1)
	}
	est, err := core.StratifiedNNStretch(cx.c, perStratum, cx.cfg.Seed+2)
	if err != nil {
		return Fail, err.Error()
	}
	davg := cx.exact().DAvg
	tol := stratifiedRelTol*davg + relEps
	if d == 1 {
		// Exhaustive on a line: exact up to summation-order rounding.
		tol = relEps * (1 + davg)
	}
	if diff := math.Abs(est.DAvg - davg); diff > tol {
		return Fail, fmt.Sprintf("stratified Davg %.9g vs exact %.9g: |diff| %.3g > tol %.3g",
			est.DAvg, davg, diff, tol)
	}
	return Pass, ""
}

// checkSampledAllPairs verifies the sampled all-pairs estimator against the
// exact all-pairs table within its confidence bound.
func checkSampledAllPairs(cx *caseCtx) (Status, string) {
	n := cx.u.N()
	if n > cx.cfg.MaxPairsN {
		return Skip, fmt.Sprintf("n=%d above all-pairs cap %d", n, cx.cfg.MaxPairsN)
	}
	tab, err := cx.pairs()
	if err != nil {
		return Fail, err.Error()
	}
	exact := tab.Avg(core.Manhattan)
	est, err := core.SampledAllPairsStretch(cx.c, core.Manhattan, cx.cfg.Samples, cx.cfg.Seed+3)
	if err != nil {
		return Fail, err.Error()
	}
	tol := cx.cfg.SampleZ*est.StdErr + relEps*(1+exact)
	if diff := math.Abs(est.Mean - exact); diff > tol {
		return Fail, fmt.Sprintf("sampled all-pairs %.9g vs exact %.9g: |diff| %.3g > %.1f·stderr %.3g",
			est.Mean, exact, diff, cx.cfg.SampleZ, est.StdErr)
	}
	return Pass, ""
}

// checkSimpleClosedForm compares the measured simple-curve stretch against
// the exact finite-n closed forms, as rationals: Davg from the
// boundary-subset formula behind Theorem 3, Dmax = n^(1−1/d) from
// Proposition 2.
func checkSimpleClosedForm(cx *caseCtx) (Status, string) {
	if cx.c.Name() != "simple" {
		return Skip, "closed form applies to the simple curve"
	}
	d, k := cx.u.D(), cx.u.K()
	davg, dmax := core.NNStretchExact(cx.c, 0)
	if want := bounds.SimpleDAvgRat(d, k); davg.Cmp(want) != 0 {
		return Fail, fmt.Sprintf("Davg measured %v, closed form %v", davg, want)
	}
	if want := new(big.Rat).SetFloat64(bounds.SimpleDMaxExact(d, k)); dmax.Cmp(want) != 0 {
		return Fail, fmt.Sprintf("Dmax measured %v, Proposition 2 gives %v", dmax, want)
	}
	return Pass, ""
}

// checkZLambdaClosedForm compares the measured per-dimension sums Λ_i
// against Lemma 5's exact finite-n formula — integer arithmetic on both
// sides, so equality is exact. It applies to the Z curve and to its
// registered table-backed twin.
func checkZLambdaClosedForm(cx *caseCtx) (Status, string) {
	name := cx.c.Name()
	if name != "z" && name != "table" {
		return Skip, "closed form applies to the Z curve (and its table twin)"
	}
	d, k := cx.u.D(), cx.u.K()
	lambdas := core.Lambdas(cx.c, 0)
	var total uint64
	for i := 1; i <= d; i++ {
		want := bounds.ZLambdaExact(d, k, i)
		if !want.IsUint64() || want.Uint64() != lambdas[i-1] {
			return Fail, fmt.Sprintf("Λ_%d measured %d, Lemma 5 closed form %v", i, lambdas[i-1], want)
		}
		total += lambdas[i-1]
	}
	if want := bounds.ZSumNNExact(d, k); !want.IsUint64() || want.Uint64() != total {
		return Fail, fmt.Sprintf("ΣΛ measured %d, closed form %v", total, want)
	}
	return Pass, ""
}

// checkSAPrimeIdentity verifies Lemma 2 exactly: the total curve distance
// over ordered pairs is (n−1)n(n+1)/3 for every bijection.
func checkSAPrimeIdentity(cx *caseCtx) (Status, string) {
	n := cx.u.N()
	if n > cx.cfg.MaxPairsN {
		return Skip, fmt.Sprintf("n=%d above all-pairs cap %d", n, cx.cfg.MaxPairsN)
	}
	tab, err := cx.pairs()
	if err != nil {
		return Fail, err.Error()
	}
	got, want := tab.SAPrime(), core.SAPrimeIdentity(n)
	if !want.IsUint64() || want.Uint64() != got {
		return Fail, fmt.Sprintf("S_A' measured %d, Lemma 2 identity %v", got, want)
	}
	return Pass, ""
}

// checkLemma3Sandwich verifies Lemma 3's sandwich from the integer NN-pair
// sum: ΣΛ/(n·d) ≤ Davg ≤ 2·ΣΛ/(n·d).
func checkLemma3Sandwich(cx *caseCtx) (Status, string) {
	lo, hi := core.Lemma3Bounds(cx.c, 0)
	davg := cx.exact().DAvg
	eps := relEps * (1 + davg)
	if davg < lo-eps || davg > hi+eps {
		return Fail, fmt.Sprintf("Davg %.9g outside Lemma 3 sandwich [%.9g, %.9g]", davg, lo, hi)
	}
	return Pass, ""
}

// --- Metamorphic layer ---

// checkAxisPermutation verifies stretch invariance under a cyclic axis
// permutation — a grid isometry, so both metrics must be preserved for
// every curve, not only the symmetric ones (the permuted curve is a
// different bijection with the same neighbor-distance multiset).
func checkAxisPermutation(cx *caseCtx) (Status, string) {
	d := cx.u.D()
	if d == 1 {
		return Skip, "no nontrivial axis permutation at d=1"
	}
	perm := make([]int, d)
	for i := range perm {
		perm[i] = (i + 1) % d
	}
	wrapped, err := curve.NewAxisPermuted(cx.c, perm)
	if err != nil {
		return Fail, err.Error()
	}
	return cmpNN("under axis permutation", core.NNStretchResult(wrapped, 0), cx.exact())
}

// checkReflection verifies stretch invariance under reflecting every axis.
func checkReflection(cx *caseCtx) (Status, string) {
	mask := uint64(1)<<uint(cx.u.D()) - 1
	wrapped := curve.NewReflected(cx.c, mask)
	return cmpNN("under reflection", core.NNStretchResult(wrapped, 0), cx.exact())
}

// checkReversal verifies stretch invariance under index reversal
// π → n−1−π, which preserves every curve distance exactly.
func checkReversal(cx *caseCtx) (Status, string) {
	wrapped := curve.NewReversed(cx.c)
	return cmpNN("under reversal", core.NNStretchResult(wrapped, 0), cx.exact())
}

// checkRefinementMonotone verifies Davg does not decrease under grid
// refinement k−1 → k, as the paper's Θ(n^(1−1/d)) growth predicts (on the
// line the key-ordered curves sit at the constant 1, so the comparison is
// non-strict).
func checkRefinementMonotone(cx *caseCtx) (Status, string) {
	if !cx.prevOK {
		return Skip, "no coarser grid in sweep"
	}
	davg := cx.exact().DAvg
	if davg < cx.prevDAvg-relEps*(1+davg) {
		return Fail, fmt.Sprintf("Davg %.9g at k=%d below %.9g at k=%d", davg, cx.u.K(), cx.prevDAvg, cx.u.K()-1)
	}
	return Pass, ""
}

// checkTheorem1Bound verifies the paper's universal lower bound at this
// finite n: Davg(π) ≥ (2/3d)(n^(1−1/d) − n^(−1−1/d)) for every bijection.
func checkTheorem1Bound(cx *caseCtx) (Status, string) {
	davg := cx.exact().DAvg
	lb := bounds.NNAvgLowerBound(cx.u.D(), cx.u.K())
	if davg < lb-relEps*(1+lb) {
		return Fail, fmt.Sprintf("Davg %.9g violates Theorem 1 bound %.9g", davg, lb)
	}
	return Pass, ""
}

// checkDMaxGeDAvg verifies Dmax ≥ Davg, the relation behind Proposition 1.
// Rounding is monotone, so it holds exactly between the roundings too.
func checkDMaxGeDAvg(cx *caseCtx) (Status, string) {
	ex := cx.exact()
	if ex.DMax < ex.DAvg {
		return Fail, fmt.Sprintf("Dmax %.9g < Davg %.9g", ex.DMax, ex.DAvg)
	}
	return Pass, ""
}

// checkAllPairsLowerBound verifies Proposition 3's all-pairs lower bounds
// under both metrics on the exact all-pairs table.
func checkAllPairsLowerBound(cx *caseCtx) (Status, string) {
	n := cx.u.N()
	if n > cx.cfg.MaxPairsN {
		return Skip, fmt.Sprintf("n=%d above all-pairs cap %d", n, cx.cfg.MaxPairsN)
	}
	tab, err := cx.pairs()
	if err != nil {
		return Fail, err.Error()
	}
	d, k := cx.u.D(), cx.u.K()
	for _, mc := range []struct {
		m  core.Metric
		lb float64
	}{
		{core.Manhattan, bounds.AllPairsManhattanLB(d, k)},
		{core.Euclidean, bounds.AllPairsEuclideanLB(d, k)},
	} {
		if got := tab.Avg(mc.m); got < mc.lb-relEps*(1+mc.lb) {
			return Fail, fmt.Sprintf("str_avg,%s %.9g violates Proposition 3 bound %.9g", mc.m, got, mc.lb)
		}
	}
	return Pass, ""
}

// checkSimpleAllPairsUpperBound verifies Proposition 4 for the simple
// curve: the average all-pairs stretch under both metrics is at most
// n^(1−1/d) (√2·n^(1−1/d) Euclidean), and by Lemma 7 the Manhattan bound
// holds pair by pair, so the max pair stretch obeys it too.
func checkSimpleAllPairsUpperBound(cx *caseCtx) (Status, string) {
	if cx.c.Name() != "simple" {
		return Skip, "Proposition 4 applies to the simple curve"
	}
	n := cx.u.N()
	if n > cx.cfg.MaxPairsN {
		return Skip, fmt.Sprintf("n=%d above all-pairs cap %d", n, cx.cfg.MaxPairsN)
	}
	d, k := cx.u.D(), cx.u.K()
	ubM := bounds.SimpleAllPairsManhattanUB(d, k)
	ubE := bounds.SimpleAllPairsEuclideanUB(d, k)
	tab, err := cx.pairs()
	if err != nil {
		return Fail, err.Error()
	}
	if avgM := tab.Avg(core.Manhattan); avgM > ubM+relEps*(1+ubM) {
		return Fail, fmt.Sprintf("str_avg,M %.9g above Proposition 4 bound %.9g", avgM, ubM)
	}
	if avgE := tab.Avg(core.Euclidean); avgE > ubE+relEps*(1+ubE) {
		return Fail, fmt.Sprintf("str_avg,E %.9g above Proposition 4 bound %.9g", avgE, ubE)
	}
	if maxM := tab.MaxPair(core.Manhattan); maxM > ubM+relEps*(1+ubM) {
		return Fail, fmt.Sprintf("max pair stretch %.9g above Lemma 7 per-pair bound %.9g", maxM, ubM)
	}
	return Pass, ""
}
