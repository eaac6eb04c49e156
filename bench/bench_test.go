package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// smallConfig is the benchmark at 1/200 of its operation counts, over a
// tenth of the records and small sweep grids: seconds, not minutes.
func smallConfig(dir string) config {
	cfg := defaultConfig()
	cfg.seconds = defaultSeconds / 200.0
	cfg.records = dataRecords / 10
	cfg.grids = [][2]int{{2, 7}, {3, 4}}
	cfg.outDir = dir
	return cfg
}

// small runs every workload once untraced and once traced at smallConfig,
// for the tests that only read results.
var small struct {
	once             sync.Once
	untraced, traced map[string]*result
	err              error
}

func smallRuns(t *testing.T) (untraced, traced map[string]*result) {
	t.Helper()
	small.once.Do(func() {
		dir, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			small.err = err
			return
		}
		defer os.RemoveAll(dir)
		cfg := smallConfig(dir)
		small.untraced, small.traced = map[string]*result{}, map[string]*result{}
		for _, spec := range workloads {
			if small.untraced[spec.name], err = runWorkload(spec, cfg); err != nil {
				small.err = err
				return
			}
			if small.traced[spec.name], err = traceWorkload(spec, cfg); err != nil {
				small.err = err
				return
			}
		}
	})
	if small.err != nil {
		t.Fatal(small.err)
	}
	return small.untraced, small.traced
}

// measurable is false for the one metric that needs Linux's /proc where
// there is none; a run leaves it out there.
func measurable(d metricDef) bool {
	return d.name != "peak_rss_mb" || runtime.GOOS == "linux"
}

func TestEveryWorkloadPassesItsOracle(t *testing.T) {
	untraced, traced := smallRuns(t)
	for _, spec := range workloads {
		for _, res := range []*result{untraced[spec.name], traced[spec.name]} {
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v",
					spec.name, res.Trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
		}
		res := untraced[spec.name]
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if d.everywhere && measurable(d) && (!ok || !(m.Value > 0)) {
				t.Errorf("%s: %s = %v, want a positive value on every workload", spec.name, d.name, m.Value)
			}
		}
		_, hasPuts := res.Metrics["put_p50_us"]
		if hasPuts != (spec.putShare > 0) {
			t.Errorf("%s: put_p50_us reported = %v", spec.name, hasPuts)
		}
		if _, ok := res.Metrics["records_per_s"]; ok != (spec.front != frontSweep) {
			t.Errorf("%s: records_per_s reported = %v", spec.name, ok)
		}
	}
}

// One client on seeded inputs makes the same calls every time, so the
// counts of a traced run must not differ between two runs of a seed.
func TestTracedCountsRepeat(t *testing.T) {
	_, traced := smallRuns(t)
	cfg := smallConfig(t.TempDir())
	for _, spec := range workloads {
		if spec.front == frontSweep {
			continue
		}
		again, err := traceWorkload(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exactCounts(spec) {
			a, ok := traced[spec.name].Metrics[name]
			b := again.Metrics[name]
			if !ok || a.Value != b.Value || a.N != b.N {
				t.Errorf("%s: %s = %v (n=%d), then %v (n=%d)", spec.name, name, a.Value, a.N, b.Value, b.N)
			}
		}
	}
}

func TestSeedChangesTheInputs(t *testing.T) {
	cfg := smallConfig(t.TempDir())
	spec, _ := workloadByName("durable_mixed")
	gen := func(seed int64) *dataset {
		cfg.seed = seed
		ds, err := generate(spec, cfg, cfg.opCount(spec))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, again, b := gen(1), gen(1), gen(2)
	same := func(x, y *dataset) bool {
		return slices.EqualFunc(x.work.boxes, y.work.boxes, func(p, q query.Box) bool {
			return slices.Equal(p.Lo, q.Lo) && slices.Equal(p.Hi, q.Hi)
		}) && slices.Equal(x.work.ops, y.work.ops)
	}
	if !same(a, again) {
		t.Error("the same seed gave different boxes or operations")
	}
	if same(a, b) {
		t.Error("seeds 1 and 2 gave the same boxes and operations")
	}
	if putRecord(a.u, 1, 7).Point.Equal(putRecord(a.u, 2, 7).Point) {
		t.Error("seeds 1 and 2 put the same point")
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default -seconds is %d", bf.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("paths %v", bf.Paths)
	}

	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name+" | "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+" | "+w.why)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads:\n got %q\nwant %q", got, want)
	}

	type row struct {
		name, unit, better string
		bound              float64
	}
	var gotE, wantE, gotL, wantL []row
	for _, m := range bf.EndToEnd {
		if m.Bound == nil {
			t.Fatalf("end_to_end %s has no bound", m.Name)
		}
		gotE = append(gotE, row{m.Name, m.Unit, m.Better, *m.Bound})
	}
	for _, d := range endToEnd {
		if d.everywhere {
			wantE = append(wantE, row{d.name, d.unit, d.better, d.bound})
		}
	}
	for _, m := range bf.PerLayer {
		gotL = append(gotL, row{m.Name, m.Unit, m.Better, 0})
	}
	for _, d := range perLayer {
		wantL = append(wantL, row{d.name, d.unit, d.better, 0})
	}
	if !slices.Equal(gotE, wantE) {
		t.Errorf("end_to_end:\n got %v\nwant %v", gotE, wantE)
	}
	if !slices.Equal(gotL, wantL) {
		t.Errorf("per_layer:\n got %v\nwant %v", gotL, wantL)
	}

	// What a run prints is what the file declares: the driver's line of
	// every workload carries exactly the declared names, and no declared
	// metric goes unreported by every workload.
	untraced, traced := smallRuns(t)
	reported := map[string]bool{}
	for _, spec := range workloads {
		for _, res := range []*result{untraced[spec.name], traced[spec.name]} {
			for name := range res.Metrics {
				reported[name] = true
			}
			line, err := driverLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			declared := wantL
			if !res.Trace {
				declared = nil
				for _, d := range wantE {
					if measurable(metricDef{name: d.name}) {
						declared = append(declared, d)
					}
				}
			}
			if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: driver line %s", spec.name, res.Trace, line)
			}
			for _, d := range declared {
				if m, ok := out.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%v: driver line lacks %s in %s", spec.name, res.Trace, d.name, d.unit)
				}
			}
		}
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !reported[d.name] && measurable(d) {
			t.Errorf("%s is declared and no workload reports it", d.name)
		}
	}
}

// A response that lost one record must fail the digest check of the
// warm-up and the count check of the timed pass. The honest answers here
// come from a linear filter over the records, which also holds the
// prefix-sum oracle against an independent computation.
func TestDroppedRecordIsCaught(t *testing.T) {
	cfg := smallConfig(t.TempDir())
	spec, _ := workloadByName("hot_small_binary")
	ds, err := generate(spec, cfg, cfg.opCount(spec))
	if err != nil {
		t.Fatal(err)
	}
	session := func(drop int) *session {
		return &session{query: func(_ context.Context, _ int, b query.Box, dg *digest) (answer, error) {
			var in []store.Record
			for _, r := range ds.recs {
				if b.Contains(r.Point) {
					in = append(in, r)
				}
			}
			if drop >= 0 && len(in) > 0 {
				in = slices.Delete(in, drop%len(in), drop%len(in)+1)
			}
			if dg != nil {
				dg.addRecords(in)
			}
			return answer{records: len(in), complete: true}, nil
		}}
	}
	ctx := context.Background()
	if err := verifyBoxes(ctx, session(-1), ds.work, 2); err != nil {
		t.Fatalf("honest answers failed the oracle: %v", err)
	}
	if p := timedPass(ctx, session(-1), ds.work, ds.u, 2); p.failed != 0 {
		t.Fatalf("honest answers failed the timed pass: %v", p.firstErr)
	}
	if err := verifyBoxes(ctx, session(3), ds.work, 2); err == nil {
		t.Error("a dropped record passed the digest check")
	}
	if p := timedPass(ctx, session(3), ds.work, ds.u, 2); p.failed == 0 {
		t.Error("a dropped record passed the timed pass")
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13, 14, 19], n=4) == [10.5, 13.0, 16.5]
	if got, want := spread([]float64{10, 11, 13, 14, 19}), (16.5-10.5)/13; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdicts(t *testing.T) {
	lat, _ := defByName(endToEnd, "lat_p50_us") // lower is better, bound 10%
	ops, _ := defByName(endToEnd, "ops_per_s")  // higher is better, bound 10%
	fail, _ := defByName(endToEnd, "fail_rate")
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"same", lat, steady, steady, "ok"},
		{"slower within bound", lat, steady, []float64{108, 107, 109, 108, 108}, "ok"},
		{"slower past bound", lat, steady, []float64{112, 111, 113, 112, 112}, "regressed"},
		{"faster", lat, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput down within bound", ops, steady, []float64{92, 93, 91, 92, 92}, "ok"},
		{"throughput down past bound", ops, steady, []float64{88, 89, 87, 88, 88}, "regressed"},
		{"throughput up", ops, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"too noisy to tell", lat, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, "unresolved"},
		{"noisy but all better", lat, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
		{"a failure appears", fail, []float64{0, 0, 0}, []float64{0, 0.001, 0}, "regressed"},
		{"no failures", fail, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok"},
	} {
		if _, got := verdict(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// -compare judges a later commit against an earlier one: an exact count may
// differ between the two sets, which is what a better curve or another page
// layout does, but not within one; and sets of different sizes do not compare.
func TestCompareExactCountsAndSizes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops int, intervals ...float64) string {
		path := dir + "/" + name
		for _, v := range intervals {
			res := &result{
				Workload: "scan_large_stream", Trace: true, Correct: true,
				Provenance: provenance{Seed: 1, Ops: ops},
				Metrics:    map[string]measure{"query.intervals_per_op": {Value: v, Unit: "count"}},
			}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 2500, 160, 160)
	for _, tc := range []struct {
		name, cand, want string
		fails            bool
	}{
		{"same counts", write("same.jsonl", 2500, 160, 160), "0 changed between the sets", false},
		{"a better curve", write("fewer.jsonl", 2500, 120, 120), "160 -> 120 (better)", false},
		{"a worse curve", write("more.jsonl", 2500, 200, 200), "160 -> 200 (worse)", false},
		{"a count that wanders", write("wander.jsonl", 2500, 160, 161), "does not repeat within the candidate", true},
		{"another size", write("short.jsonl", 1250, 160, 160), "", true},
	} {
		var out strings.Builder
		err := runCompare(&out, []string{base, tc.cand})
		if (err != nil) != tc.fails || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: err = %v, output:\n%s", tc.name, err, out.String())
		}
	}
	write("mixed.jsonl", 2500, 160)
	if _, err := loadSet(write("mixed.jsonl", 1250, 160)); err == nil {
		t.Error("a set that mixes runs of two sizes was read without complaint")
	}
}
