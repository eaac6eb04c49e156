// Package conformance cross-checks every registered space filling curve
// against every stretch engine in the repository, turning the redundancy of
// the codebase — four independent ways to compute each metric — into a
// correctness backbone.
//
// The engine is table-driven: it enumerates every curve name in the curve
// registry across a sweep of (d, k) universes and runs three layers of
// checks on each case.
//
//   - Invariants: Index and Point are mutually inverse bijections covering
//     all n cells with outputs in range; repeated metric evaluations are
//     bit-for-bit deterministic, for every worker count; the unit-step
//     property holds exactly for the curves known to possess it.
//
//   - Differential: independently-coded sequential oracles agree with the
//     deterministic parallel engines (open-grid and torus); a table-backed
//     materialization of each curve shadows it bit-for-bit; the Monte-Carlo
//     samplers (uniform and importance-stratified) converge to the exact
//     values within computed confidence bounds; and exact measurements
//     match the closed forms of the bounds package wherever the paper (or
//     this reproduction) proves a formula — Λ_i(Z) of Lemma 5, Davg/Dmax of
//     the simple curve (Theorem 3, Proposition 2), and the S_{A′} identity
//     of Lemma 2, all as exact integer or rational comparisons.
//
//   - Metamorphic: the stretch metrics are invariant under the grid
//     isometries (axis permutation, reflection) and under curve reversal;
//     Davg is monotone under grid refinement as the paper's Θ(n^(1−1/d))
//     growth predicts; and no curve at any finite n violates the universal
//     lower bound of Theorem 1, the Dmax ≥ Davg relation of Proposition 1,
//     the Lemma 3 sandwich, or the all-pairs bounds of Propositions 3–4.
//
// The exact engines are compared with equality; only bounds and estimators
// carry a tolerance (see relEps in checks.go).
//
// The package is a plain library so fuzz targets, chaos runs, the
// experiment harness (experiment ext-conform) and the sfcconform CLI can
// all reuse it.
package conformance

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// Layer identifies which checking layer a result belongs to.
type Layer string

// The three layers of the engine.
const (
	Invariant    Layer = "invariant"
	Differential Layer = "differential"
	Metamorphic  Layer = "metamorphic"
)

// Status is the outcome of one check on one case.
type Status uint8

// Check outcomes. Skip means the check does not apply to the case (e.g. an
// all-pairs check above the O(n²) cap, or an axis-permutation check at
// d = 1) — a skip is not a pass, and the matrix renders it distinctly.
const (
	Pass Status = iota
	Fail
	Skip
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Pass:
		return "pass"
	case Fail:
		return "FAIL"
	case Skip:
		return "skip"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Config parameterizes a conformance sweep. The zero value is not usable;
// start from Quick or Full.
type Config struct {
	// Dims is the set of dimensionalities swept.
	Dims []int
	// MaxExactN caps universe sizes for the O(n·d) exact sweeps; k ranges
	// over 1 … max{k : 2^(d·k) ≤ MaxExactN} per dimension.
	MaxExactN uint64
	// MaxPairsN caps universe sizes for the O(n²) all-pairs checks; cases
	// above it skip those checks.
	MaxPairsN uint64
	// Samples is the budget for the Monte-Carlo convergence checks.
	Samples int
	// Seed drives the random curve and the samplers; a sweep is a pure
	// function of its Config.
	Seed int64
	// Workers is the set of worker counts the determinism checks sweep.
	Workers []int
	// SampleZ is the confidence multiplier for sampler convergence: the
	// sampled estimate must sit within SampleZ standard errors of the exact
	// value.
	SampleZ float64
}

// Quick returns the -short sweep: every curve over d ∈ {1, 2, 3}, universes
// up to 2^12 cells. It completes in well under a second of CPU time.
func Quick() Config {
	return Config{
		Dims:      []int{1, 2, 3},
		MaxExactN: 1 << 12,
		MaxPairsN: 1 << 9,
		Samples:   20_000,
		Seed:      20120521,
		Workers:   []int{1, 2, 3, 8},
		SampleZ:   8,
	}
}

// Full returns the CI sweep: universes up to 2^16 cells and a larger
// sampling budget.
func Full() Config {
	cfg := Quick()
	cfg.MaxExactN = 1 << 16
	cfg.MaxPairsN = 1 << 11
	cfg.Samples = 200_000
	return cfg
}

// Validate reports configuration errors.
func (cfg Config) Validate() error {
	if len(cfg.Dims) == 0 {
		return fmt.Errorf("conformance: no dimensions configured")
	}
	for _, d := range cfg.Dims {
		if d < 1 || d > bits.MaxKeyBits {
			return fmt.Errorf("conformance: bad dimension %d", d)
		}
	}
	if cfg.MaxExactN < 2 {
		return fmt.Errorf("conformance: MaxExactN = %d too small", cfg.MaxExactN)
	}
	if len(cfg.Workers) == 0 {
		return fmt.Errorf("conformance: no worker counts configured")
	}
	for _, w := range cfg.Workers {
		if w < 1 {
			return fmt.Errorf("conformance: bad worker count %d", w)
		}
	}
	if cfg.Samples < 2 {
		return fmt.Errorf("conformance: need at least 2 samples")
	}
	if cfg.SampleZ <= 0 {
		return fmt.Errorf("conformance: SampleZ must be positive")
	}
	return nil
}

// maxK returns the largest k ≥ 1 with 2^(d·k) ≤ limit, clamped to the key
// budget.
func maxK(d int, limit uint64) int {
	k := 1
	for (k+1)*d <= bits.MaxKeyBits && uint64(1)<<uint((k+1)*d) <= limit {
		k++
	}
	return k
}

// Result is the outcome of one check on one (curve, d, k) case.
type Result struct {
	Curve  string
	D, K   int
	Layer  Layer
	Check  string
	Status Status
	Detail string // failure message, or the reason for a skip
}

// Case renders the (curve, d, k) triple.
func (r Result) Case() string { return fmt.Sprintf("%s d=%d k=%d", r.Curve, r.D, r.K) }

// caseCtx carries one (curve, d, k) case through the check table, caching
// the exact stretch values so the ~dozen checks that need them share one
// parallel sweep.
type caseCtx struct {
	cfg       Config
	c         curve.Curve
	u         *grid.Universe
	nn        core.NN
	haveExact bool
	// tab is the exact all-pairs table, built on first use (see pairs).
	tab     *core.PairTable
	tabErr  error
	haveTab bool
	// prevDAvg is Davg of the same curve name at (d, k−1), for the
	// refinement-monotonicity check; prevOK reports whether it is set.
	prevDAvg float64
	prevOK   bool
}

// exact returns the cached exact stretch metrics, computing them on first
// use.
func (cx *caseCtx) exact() core.NN {
	if !cx.haveExact {
		cx.nn = core.NNStretchResult(cx.c, 0)
		cx.haveExact = true
	}
	return cx.nn
}

// pairs returns the cached exact all-pairs table, building it on first use.
func (cx *caseCtx) pairs() (*core.PairTable, error) {
	if !cx.haveTab {
		cx.tab, cx.tabErr = core.NewPairTable(cx.c, 0)
		cx.haveTab = true
	}
	return cx.tab, cx.tabErr
}

// Check is one named conformance check.
type Check struct {
	Name  string
	Layer Layer
	Run   func(cx *caseCtx) (Status, string)
}

// Checks returns the full check table in layer order. The table is exported
// so callers (the CLI, the experiment harness) can render column legends.
func Checks() []Check {
	return []Check{
		{"bijection", Invariant, checkBijection},
		{"inverse", Invariant, checkInverse},
		{"determinism", Invariant, checkDeterminism},
		{"worker-sweep", Invariant, checkWorkerSweep},
		{"unit-step", Invariant, checkUnitStep},
		{"seq-oracle", Differential, checkSequentialOracle},
		{"torus-oracle", Differential, checkTorusOracle},
		{"table-shadow", Differential, checkTableShadow},
		{"kernel-batch", Differential, checkKernelBatch},
		{"kernel-sweep", Differential, checkKernelSweep},
		{"sampled-nn", Differential, checkSampledNN},
		{"stratified-nn", Differential, checkStratifiedNN},
		{"sampled-pairs", Differential, checkSampledAllPairs},
		{"form-simple", Differential, checkSimpleClosedForm},
		{"form-z-lambda", Differential, checkZLambdaClosedForm},
		{"form-saprime", Differential, checkSAPrimeIdentity},
		{"lemma3-sandwich", Differential, checkLemma3Sandwich},
		{"axis-perm", Metamorphic, checkAxisPermutation},
		{"reflection", Metamorphic, checkReflection},
		{"reversal", Metamorphic, checkReversal},
		{"refine-monotone", Metamorphic, checkRefinementMonotone},
		{"thm1-bound", Metamorphic, checkTheorem1Bound},
		{"prop1-maxavg", Metamorphic, checkDMaxGeDAvg},
		{"prop3-pairs-lb", Metamorphic, checkAllPairsLowerBound},
		{"prop4-simple-ub", Metamorphic, checkSimpleAllPairsUpperBound},
	}
}

// Run executes the full sweep and returns the report. The error is non-nil
// only for configuration or curve-construction problems; check failures are
// reported through the matrix (and Report.Failures), not the error.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Config: cfg}
	checks := Checks()
	names := curve.Names()
	sort.Strings(names)
	for _, d := range cfg.Dims {
		top := maxK(d, cfg.MaxExactN)
		// prev[name] is Davg at the previous k, feeding refine-monotone.
		prev := map[string]float64{}
		for k := 1; k <= top; k++ {
			u, err := grid.New(d, k)
			if err != nil {
				return nil, err
			}
			next := map[string]float64{}
			for _, name := range names {
				c, err := curve.ByName(name, u, cfg.Seed)
				if err != nil {
					return nil, fmt.Errorf("conformance: building %s over %v: %w", name, u, err)
				}
				cx := &caseCtx{cfg: cfg, c: c, u: u}
				if v, ok := prev[name]; ok {
					cx.prevDAvg, cx.prevOK = v, true
				}
				for _, ch := range checks {
					status, detail := ch.Run(cx)
					rep.Results = append(rep.Results, Result{
						Curve: name, D: d, K: k,
						Layer: ch.Layer, Check: ch.Name,
						Status: status, Detail: detail,
					})
				}
				next[name] = cx.exact().DAvg
			}
			prev = next
		}
	}
	return rep, nil
}
