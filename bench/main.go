// Command bench is this repository's benchmark: six seeded workloads over
// the curve-keyed stack, end-to-end metrics with regression bounds, and a
// traced run that replays the same operations layer by layer. README.md in
// this directory says what each workload and metric is for.
//
//	go run ./bench -workload hot_small_binary -seed 1           end-to-end metrics
//	go run ./bench -workload hot_small_binary -seed 1 -trace 1  per-layer metrics
//	go run ./bench -all [-o set.jsonl]                           every workload, both ways
//	go run ./bench -compare a.jsonl b.jsonl                      regression verdicts
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}, the form BENCHMARK.json's
// driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	cfg := defaultConfig()
	var (
		name    = flag.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames()))
		trace   = flag.Int("trace", 0, "1 runs the traced layer ladder instead and reports the per-layer metrics")
		all     = flag.Bool("all", false, "run every workload untraced, then traced, each in a process of its own")
		compare = flag.Bool("compare", false, "compare two result files: -compare baseline.jsonl candidate.jsonl")
		out     = flag.String("o", "", "append each run's result to this file, one JSON object per line")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	// BENCHMARK.json's driver passes -seconds <run_seconds> on every run;
	// that is the flag's one user. Sets sized differently do not mix:
	// -compare refuses them by their operation counts.
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "sizes the run: operation counts are each workload's rate times this")
	flag.StringVar(&cfg.outDir, "dir", cfg.outDir, "directory for durable data and trace files")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, flag.Args())
	case *all:
		err = runAll(os.Stdout, cfg, *out)
	default:
		err = runOne(os.Stdout, *name, cfg, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// errIncorrect reports a run whose outputs were wrong or whose operations
// failed; the result has been printed all the same.
var errIncorrect = errors.New("correctness check failed")

// runOne runs one workload in this process and prints its result.
func runOne(w io.Writer, name string, cfg config, trace bool, outFile string) error {
	spec, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q; have %v", name, workloadNames())
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds %v: want more than 0", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	run := runWorkload
	if trace {
		run = traceWorkload
	}
	res, err := run(spec, cfg)
	if err != nil {
		return err
	}
	if outFile != "" {
		if err := appendResult(outFile, res); err != nil {
			return err
		}
	}
	if err := printResult(w, res); err != nil {
		return err
	}
	if !res.Correct || res.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// printResult writes the provenance header, one line per metric the
// workload has, and last the driver's line.
func printResult(w io.Writer, res *result) error {
	prov, err := json.Marshal(res.Provenance)
	if err != nil {
		return err
	}
	mode, defs := "end-to-end", endToEnd
	if res.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "# %s %s %s\n", res.Workload, mode, prov)
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue // does not apply to this workload
		}
		fmt.Fprintf(w, "%-36s %18s %-10s n=%d\n", d.name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit, m.N)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# WRONG: %s\n", e)
	}
	line, err := driverLine(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// driverLine is the object BENCHMARK.json's contract asks for as the last
// line: every declared metric of the run's kind, and nothing else. The
// contract wants each declared metric from each workload, so a per-layer
// metric of a layer the workload never enters is carried as 0 here (no
// calls, no time); the lines above and the result file leave it out.
func driverLine(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Trace {
		for _, d := range perLayer {
			metrics[d.name] = value{Value: res.Metrics[d.name].Value, Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			if !d.everywhere {
				continue
			}
			// What was not measured is left out, never sent as 0: the
			// figures of a run that failed, peak_rss_mb off Linux.
			if m, ok := res.Metrics[d.name]; ok {
				metrics[d.name] = value{Value: m.Value, Unit: d.unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload untraced, then every workload traced. Each
// run is a child process, so that peak_rss_mb is the workload's own and
// not the high-water mark of whatever ran before it.
func runAll(w io.Writer, cfg config, outFile string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, trace := range []string{"0", "1"} {
		for _, spec := range workloads {
			args := []string{
				"-workload", spec.name, "-trace", trace,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-dir", cfg.outDir,
			}
			if outFile != "" {
				args = append(args, "-o", outFile)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = w, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %s): %v", spec.name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d runs failed: %v", len(failed), 2*len(workloads), failed)
	}
	return nil
}
