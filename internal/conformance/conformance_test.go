package conformance

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
)

// testConfig returns the sweep budget for go test: the quick sweep under
// -short, the full sweep otherwise.
func testConfig(t testing.TB) Config {
	t.Helper()
	if testing.Short() {
		return Quick()
	}
	cfg := Full()
	// Keep the default `go test ./...` wall time modest; CI's dedicated
	// conformance job runs the unshrunk Full sweep through cmd/sfcconform.
	cfg.MaxExactN = 1 << 14
	cfg.MaxPairsN = 1 << 10
	cfg.Samples = 50_000
	return cfg
}

// TestConformanceSweep is the repository's cross-engine backbone: every
// registered curve over d ∈ {1,2,3}, every check layer, and a fully green
// matrix required.
func TestConformanceSweep(t *testing.T) {
	rep, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("%s: [%s] %s: %s", f.Case(), f.Layer, f.Check, f.Detail)
	}
	pass, fail, _ := rep.Counts()
	if pass == 0 {
		t.Fatal("sweep ran no passing checks")
	}
	if fail == 0 && !rep.OK() {
		t.Fatal("OK() inconsistent with counts")
	}
	t.Log(rep.Summary())
}

// TestEveryRegisteredCurveCovered pins that the sweep enumerates the full
// registry — a new curve cannot be added without entering the matrix.
func TestEveryRegisteredCurveCovered(t *testing.T) {
	cfg := Quick()
	cfg.Dims = []int{2}
	cfg.MaxExactN = 1 << 6
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, res := range rep.Results {
		covered[res.Curve] = true
	}
	for _, name := range curve.Names() {
		if !covered[name] {
			t.Errorf("registered curve %q missing from sweep", name)
		}
	}
}

// TestReportRendering exercises the matrix, CSV and summary renderers on a
// tiny sweep.
func TestReportRendering(t *testing.T) {
	cfg := Quick()
	cfg.Dims = []int{1, 2}
	cfg.MaxExactN = 1 << 6
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matrix := rep.Matrix()
	for _, name := range curve.Names() {
		if !strings.Contains(matrix, name) {
			t.Errorf("matrix lacks curve %q:\n%s", name, matrix)
		}
	}
	for _, ch := range Checks() {
		if !strings.Contains(matrix, ch.Name) {
			t.Errorf("matrix lacks check column %q", ch.Name)
		}
	}
	csv := rep.CSV()
	if lines := strings.Count(csv, "\n"); lines != len(rep.Results)+1 {
		t.Errorf("CSV has %d lines for %d results", lines, len(rep.Results))
	}
	if sum := rep.Summary(); !strings.Contains(sum, "conformance") {
		t.Errorf("summary %q", sum)
	}
}

// TestDetectsBrokenCurve feeds the check table a deliberately corrupted
// bijection and requires the invariant layer to convict it — the engine
// must be able to fail.
func TestDetectsBrokenCurve(t *testing.T) {
	u := grid.MustNew(2, 2)
	n := u.N()
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	// Swap two entries of the inverse only, breaking Index∘Point ≠ id
	// while keeping Index a valid bijection.
	tbl, err := curve.NewTable(u, "broken", perm)
	if err != nil {
		t.Fatal(err)
	}
	cx := &caseCtx{cfg: Quick(), c: &misindexed{tbl}, u: u}
	if st, _ := checkInverse(cx); st != Fail {
		t.Fatalf("inverse check on corrupted curve: %v", st)
	}
	if st, _ := checkBijection(cx); st != Fail {
		t.Fatalf("bijection check on corrupted curve: %v", st)
	}
}

// misindexed wraps a curve, corrupting Index for a single cell.
type misindexed struct{ curve.Curve }

func (m *misindexed) Index(p grid.Point) uint64 {
	idx := m.Curve.Index(p)
	if idx == 0 {
		return 1 // collide with the cell at index 1
	}
	return idx
}

// TestTorusWorkerSweep pins that the periodic-boundary engine's answer does
// not depend on how many chunks the sweep is split into: at d=3 k=4 every
// worker count gives exactly the sequential oracle's rounding.
func TestTorusWorkerSweep(t *testing.T) {
	u := grid.MustNew(3, 4)
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, 1)
		if err != nil {
			t.Fatal(err)
		}
		refAvg, refMax, ok := refNNStretchTorus(c)
		if !ok {
			t.Fatalf("%s: oracle cannot reduce d=3 k=4", name)
		}
		want := rounded(refAvg, refMax)
		for _, w := range []int{1, 2, 3, 7} {
			if nn := core.NNStretchTorusResult(c, w); nn != want {
				t.Errorf("%s workers=%d: torus %+v, oracle %+v", name, w, nn, want)
			}
		}
	}
}
