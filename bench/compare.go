package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// resultSet is the results of one side of a comparison, read from files as
// -o writes them: one JSON object per line, several runs of a workload
// making several samples of a metric.
type resultSet struct {
	// endToEnd[workload][metric] lists the untraced runs' values.
	endToEnd map[string]map[string][]float64
	// counts lists the traced runs' values of the per-layer metrics that
	// must repeat exactly, per workload, seed and metric.
	counts map[countKey][]float64
	// ops[workload/kind] is the operation count of the set's runs of that
	// kind. Runs of different sizes measure different things, so a set
	// holds one size of each.
	ops map[string]int
}

type countKey struct {
	workload string
	seed     int64
	metric   string
}

func (k countKey) String() string {
	return fmt.Sprintf("%s/seed %d/%s", k.workload, k.seed, k.metric)
}

// loadSet reads every file the pattern matches; a set of several runs may
// be one file appended to or several files.
func loadSet(pattern string) (*resultSet, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result file matches %q", pattern)
	}
	set := &resultSet{endToEnd: map[string]map[string][]float64{}, counts: map[countKey][]float64{}, ops: map[string]int{}}
	for _, path := range paths {
		if err := set.load(path); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func (set *resultSet) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		kind := r.Workload + " end-to-end"
		if r.Trace {
			kind = r.Workload + " traced"
		}
		if n, ok := set.ops[kind]; ok && n != r.Provenance.Ops {
			return fmt.Errorf("%s:%d: %s run of %d operations in a set whose others have %d", path, line, kind, r.Provenance.Ops, n)
		}
		set.ops[kind] = r.Provenance.Ops
		if r.Trace {
			spec, _ := workloadByName(r.Workload)
			for _, name := range exactCounts(spec) {
				if m, ok := r.Metrics[name]; ok {
					key := countKey{r.Workload, r.Provenance.Seed, name}
					set.counts[key] = append(set.counts[key], m.Value)
				}
			}
			continue
		}
		if set.endToEnd[r.Workload] == nil {
			set.endToEnd[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set.endToEnd[r.Workload][name] = append(set.endToEnd[r.Workload][name], m.Value)
		}
	}
	return sc.Err()
}

// spread is the distance between the first and third quartiles as a share
// of the median, the quartiles taken as Python's statistics.quantiles(v,
// n=4) takes them, so that it reads the same as the driver's figure.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// verdict applies one end-to-end metric's bound to a baseline's and a
// candidate's samples.
//
//	regressed   the candidate's median is worse by more than the bound
//	unresolved  it is not, but the runs of one side spread wider than the
//	            bound, and the candidate's runs are not all better than all
//	            of the baseline's: the comparison cannot tell
//	ok          otherwise
//
// fail_rate has bound 0 and is compared by mean: any increase regresses.
func verdict(d metricDef, base, cand []float64) (worse float64, v string) {
	if d.bound == 0 {
		if mean(cand) > mean(base) {
			return mean(cand) - mean(base), "regressed"
		}
		return 0, "ok"
	}
	mb, mc := median(base), median(cand)
	worse = (mc - mb) / mb
	better := func(c, b float64) bool { return c < b }
	if d.better == "higher" {
		worse = -worse
		better = func(c, b float64) bool { return c > b }
	}
	if worse > d.bound {
		return worse, "regressed"
	}
	if max(spread(base), spread(cand)) > d.bound {
		for _, c := range cand {
			for _, b := range base {
				if !better(c, b) {
					return worse, "unresolved"
				}
			}
		}
	}
	return worse, "ok"
}

// runCompare prints one row per workload × end-to-end metric of the
// baseline, then what the exact counts of the traced runs did. It fails when
// a metric regressed or is missing, when the two sets ran different numbers
// of operations, or when a count did not repeat within one set: one client
// on seeded inputs makes the same calls every time. A count that differs
// between the sets is what a change to a curve, a page layout or a frame
// does on purpose; it is printed, with its direction, and does not fail.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(args))
	}
	base, err := loadSet(args[0])
	if err != nil {
		return err
	}
	cand, err := loadSet(args[1])
	if err != nil {
		return err
	}
	for _, spec := range workloads {
		for _, kind := range []string{spec.name + " end-to-end", spec.name + " traced"} {
			n, inBase := base.ops[kind]
			if m, ok := cand.ops[kind]; inBase && ok && m != n {
				return fmt.Errorf("%s: baseline ran %d operations, candidate %d; sets of different sizes do not compare", kind, n, m)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline\tcandidate\tworse by\tspreads\tbound\tverdict")
	bad := 0
	for _, spec := range workloads {
		for _, d := range endToEnd {
			b, ok := base.endToEnd[spec.name][d.name]
			if !ok {
				continue
			}
			c, ok := cand.endToEnd[spec.name][d.name]
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t-\t-\t-\t-\tmissing\n", spec.name, d.name, d.unit, median(b))
				bad++
				continue
			}
			worse, v := verdict(d, b, c)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%% %.2f%%\t%.0f%%\t%s\n",
				spec.name, d.name, d.unit, median(b), median(c), 100*worse,
				100*spread(b), 100*spread(c), 100*d.bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	unsteady := 0
	for _, side := range []struct {
		name string
		set  *resultSet
	}{{"baseline", base}, {"candidate", cand}} {
		for _, k := range sortedKeys(side.set.counts) {
			if v := side.set.counts[k]; slices.Min(v) != slices.Max(v) {
				fmt.Fprintf(w, "%s: does not repeat within the %s: %v\n", k, side.name, v)
				unsteady++
			}
		}
	}
	changed := 0
	for _, k := range sortedKeys(base.counts) {
		b, c := base.counts[k], cand.counts[k]
		if len(c) == 0 || b[0] == c[0] || slices.Min(b) != slices.Max(b) || slices.Min(c) != slices.Max(c) {
			continue
		}
		d, _ := defByName(perLayer, k.metric)
		dir := "worse"
		if (c[0] < b[0]) == (d.better == "lower") {
			dir = "better"
		}
		fmt.Fprintf(w, "%s: %v -> %v (%s)\n", k, b[0], c[0], dir)
		changed++
	}
	fmt.Fprintf(w, "exact counts: %d series in the baseline, %d in the candidate; %d do not repeat within a set; %d changed between the sets\n",
		len(base.counts), len(cand.counts), unsteady, changed)
	if bad+unsteady > 0 {
		return fmt.Errorf("%d regressed or missing, %d exact counts do not repeat", bad, unsteady)
	}
	return nil
}

func sortedKeys(m map[countKey][]float64) []countKey {
	keys := make([]countKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b countKey) int {
		return cmp.Or(cmp.Compare(a.workload, b.workload), cmp.Compare(a.seed, b.seed), cmp.Compare(a.metric, b.metric))
	})
	return keys
}
