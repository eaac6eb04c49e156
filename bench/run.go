package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/wal"
)

// config is what one run is asked to do. The flags fill it; the tests
// shrink records, seconds and grids.
type config struct {
	seed    int64
	seconds float64
	records int      // size of the common data set
	grids   [][2]int // stretch_sweep's (d, k) list
	clients int      // closed-loop clients
	outDir  string   // durable data directories and trace files go here

	// Set by the traced run only.
	traceLegs bool
	walWrap   func(wal.File) wal.File
}

func defaultConfig() config {
	return config{
		seed:    1,
		seconds: defaultSeconds,
		records: dataRecords,
		grids:   sweepGrids,
		clients: min(2, runtime.NumCPU()),
		outDir:  "bench/out",
	}
}

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 8

// opCount is the workload's fixed operation count for this -seconds.
func (cfg config) opCount(spec workloadSpec) int {
	return max(1, int(math.Round(spec.rate*cfg.seconds)))
}

// measure is one reported value.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a quantile or a per-operation
	// mean; 0 where the value is a single reading.
	N int `json:"n,omitempty"`
}

// provenance says where, on what and with which inputs a result was
// measured; every output carries it.
type provenance struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Ops        int    `json:"ops"`
	Records    int    `json:"records"`
	DataDir    string `json:"data_dir,omitempty"`
	// FlushPolicy states the durable store's settings, which a comparison
	// must keep the same on both sides.
	FlushPolicy string `json:"flush_policy,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]measure `json:"metrics"`
	// Errors says what the correctness checks found wrong; empty when
	// Correct.
	Errors []string `json:"errors,omitempty"`
}

func newResult(spec workloadSpec, cfg config, trace bool, ops int) *result {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &result{
		Workload: spec.name,
		Trace:    trace,
		Correct:  true,
		Metrics:  map[string]measure{},
		Provenance: provenance{
			Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit,
			Seed: cfg.seed, Clients: cfg.clients, Ops: ops, Records: cfg.records,
		},
	}
}

func (r *result) set(defs []metricDef, name string, value float64, n int) {
	d, ok := defByName(defs, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = measure{Value: value, Unit: d.unit, N: n}
}

// wrong records a failed correctness check.
func (r *result) wrong(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// dataset is a query workload's generated input.
type dataset struct {
	u *grid.Universe
	c curve.Curve
	// recs are the records the system is loaded with: the generated set,
	// or for the durable front its first half, which the timed pass then
	// writes beside. A run drops them once they are loaded; seeded keeps
	// their number.
	recs   []store.Record
	seeded int
	or     *oracle
	work   *work
}

// durablePolicy is printed in the provenance of durable_mixed: the store's
// defaults, which the benchmark leaves alone.
const durablePolicy = "WAL fsync before every ack; memtable limit 1024 ops; compaction at 4 runs, automatic"

// generate builds everything a query workload feeds the program from the
// seed: records, oracle, boxes and trace. None of it is timed.
func generate(spec workloadSpec, cfg config, ops int) (*dataset, error) {
	u, err := grid.New(dataD, dataK)
	if err != nil {
		return nil, err
	}
	c, err := curve.ByName(dataCurve, u, cfg.seed)
	if err != nil {
		return nil, err
	}
	recs := chaos.SyntheticRecords(u, cfg.seed, cfg.records)
	if spec.front == frontDurable {
		recs = recs[:len(recs)/2]
	}
	ds := &dataset{u: u, c: c, recs: recs, seeded: len(recs), or: newOracle(int(u.Side()), recs)}
	boxes, want, err := genBoxes(u, ds.or, len(recs), spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	ds.work = &work{
		boxes: boxes, want: want, seed: cfg.seed,
		ops:     genTrace(spec, ops, cfg.seed),
		atLeast: spec.putShare > 0,
	}
	return ds, nil
}

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, and the last set-up is the one the passes run against.
const setupRepeats = 3

// setUp opens the workload's session setupRepeats times and returns the
// last one with the median set-up time in seconds.
func setUp(ds *dataset, spec workloadSpec, cfg config) (*session, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := openSession(ds.c, ds.recs, spec, cfg)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return s, median(times), nil
		}
		if err := s.close(); err != nil {
			return nil, 0, err
		}
	}
}

// runWorkload is the untraced run: generate, set up, verify every distinct
// box (the warm-up), run the timed pass, and report the end-to-end metrics.
func runWorkload(spec workloadSpec, cfg config) (*result, error) {
	if spec.front == frontSweep {
		return runSweep(spec, cfg)
	}
	ops := cfg.opCount(spec)
	res := newResult(spec, cfg, false, ops)
	ds, err := generate(spec, cfg, ops)
	if err != nil {
		return nil, err
	}
	s, setup, err := setUp(ds, spec, cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if spec.front == frontDurable {
		res.Provenance.DataDir = s.dataDir
		res.Provenance.FlushPolicy = durablePolicy
	}
	// The records have been loaded; only the oracle's tables stay.
	ds.recs = nil

	ctx := context.Background()
	if err := verifyBoxes(ctx, s, ds.work, cfg.clients); err != nil {
		res.wrong("warm-up: %v", err)
	}

	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	p := timedPass(ctx, s, ds.work, ds.u, cfg.clients)
	rss, haveRSS := peakRSSMiB()

	res.Attempted = ops
	res.Failed = p.failed
	if p.firstErr != nil {
		res.wrong("timed pass: %d of %d operations failed, first: %v", p.failed, ops, p.firstErr)
	}
	done := ops - p.failed
	if done == 0 || len(p.lat) == 0 {
		res.wrong("timed pass: no operation succeeded")
		return res, nil
	}
	res.set(endToEnd, "setup_s", setup, setupRepeats)
	res.set(endToEnd, "ops_per_s", float64(done)/p.wall.Seconds(), done)
	res.set(endToEnd, "records_per_s", float64(p.records)/p.wall.Seconds(), int(p.records))
	res.set(endToEnd, "lat_p50_us", quantileUS(p.lat, 0.50), len(p.lat))
	res.set(endToEnd, "lat_p99_us", quantileUS(p.lat, 0.99), len(p.lat))
	res.set(endToEnd, "ttfb_p50_us", quantileUS(p.ttfb, 0.50), len(p.ttfb))
	if len(p.putLat) > 0 {
		res.set(endToEnd, "put_p50_us", quantileUS(p.putLat, 0.50), len(p.putLat))
		res.set(endToEnd, "put_p99_us", quantileUS(p.putLat, 0.99), len(p.putLat))
	}
	if haveRSS {
		res.set(endToEnd, "peak_rss_mb", rss, 0)
	}
	res.set(endToEnd, "fail_rate", float64(p.failed)/float64(ops), ops)

	if spec.front == frontDurable {
		want := ds.or.all()
		want.merge(p.acked)
		if err := checkDurability(ctx, s, ds, want); err != nil {
			res.wrong("durability: %v", err)
		}
	}
	return res, nil
}
