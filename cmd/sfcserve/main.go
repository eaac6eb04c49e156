// Command sfcserve replays a synthetic box-query trace against the sharded
// query service and prints its metrics report and a throughput line — the
// serving-side counterpart of sfcstretch's analytical metrics.
//
// The trace is zipf-skewed over a fixed population of random boxes, the
// access pattern the decomposition cache is built for: a hot minority of
// boxes dominates, so most queries reuse a cached decomposition.
//
// With -remote the same trace is replayed over the wire against a live
// sfcserved daemon through internal/client instead of an in-process
// service: client-side latency quantiles, throughput, and the shed rate
// (429 responses per attempt) are reported, and -maxshed turns an excessive
// shed rate into a nonzero exit for CI gates. -transport selects the
// JSON/HTTP transport, the binary wire transport (the daemon must run with
// -wire-addr), or "both" — an A/B replay of the identical trace over each
// that prints the binary-vs-JSON speedup. -writes N additionally replays N
// puts per selected transport against a durable daemon (-data) and records
// the write-throughput A/B.
//
// Usage:
//
//	sfcserve -curve hilbert -d 2 -k 6 -records 50000 -queries 10000 -shards 8
//	sfcserve -shards 8 -compare            # also run 1 shard, print speedup
//	sfcserve -json BENCH_service.json      # write the machine-readable summary
//	sfcserve -remote http://127.0.0.1:7171 -queries 2000 -maxshed 0 -json BENCH_server.json
//	sfcserve -remote http://127.0.0.1:7171 -transport both   # JSON vs binary A/B
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/profiling"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
)

type config struct {
	curveName string
	d, k      int
	records   int
	queries   int
	shards    int
	workers   int
	clients   int
	cache     int
	distinct  int
	zipfS     float64
	boxSide   int
	seed      int64
	trace     string
	compare   bool
	cold      bool
	jsonPath  string

	remote    string
	transport string
	rtimeout  time.Duration
	maxShed   float64
	stream    bool
	compress  bool
	writes    int
}

func main() {
	var cfg config
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	flag.StringVar(&cfg.curveName, "curve", "hilbert", fmt.Sprintf("curve name %v", curve.Names()))
	flag.IntVar(&cfg.d, "d", 2, "dimensions")
	flag.IntVar(&cfg.k, "k", 6, "log2 side length (n = 2^(d·k) cells)")
	flag.IntVar(&cfg.records, "records", 50_000, "records bulkloaded into the shards")
	flag.IntVar(&cfg.queries, "queries", 10_000, "queries replayed")
	flag.IntVar(&cfg.shards, "shards", 8, "store shards")
	flag.IntVar(&cfg.workers, "workers", 0, "service worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.clients, "clients", 4, "concurrent client goroutines")
	flag.IntVar(&cfg.cache, "cache", 0, "decomposition cache entries (0 = default, negative = off)")
	var cacheSize int
	flag.IntVar(&cacheSize, "cachesize", 0, "decomposition cache entries, 0 = disabled (cold scans); overrides -cache when given")
	flag.BoolVar(&cfg.cold, "cold", false, "also replay with the cache disabled and record warm + cold sections")
	flag.IntVar(&cfg.distinct, "distinct", 512, "distinct boxes in the trace population")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.2, "zipf exponent of the box popularity (s > 1)")
	flag.IntVar(&cfg.boxSide, "box", 12, "maximum box side length in cells")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for records, boxes, and the trace")
	flag.StringVar(&cfg.trace, "trace", "synthetic", "trace kind (only \"synthetic\")")
	flag.BoolVar(&cfg.compare, "compare", false, "also replay against 1 shard and print the speedup")
	flag.StringVar(&cfg.jsonPath, "json", "", "write a JSON summary to this file")
	flag.StringVar(&cfg.remote, "remote", "", "replay against a live sfcserved daemon at this base URL instead of in-process")
	flag.StringVar(&cfg.transport, "transport", "json", "remote replay transport: json, binary (needs the daemon's -wire-addr), or both (A/B, prints the speedup)")
	flag.DurationVar(&cfg.rtimeout, "rtimeout", 0, "per-request ?timeout sent to the remote daemon (0 = none)")
	flag.Float64Var(&cfg.maxShed, "maxshed", 1, "fail (exit nonzero) if the remote shed rate exceeds this fraction")
	flag.BoolVar(&cfg.stream, "stream", false, "remote: also replay through the streaming surface, recording time-to-first-batch (binary transport)")
	flag.BoolVar(&cfg.compress, "compress", false, "remote: with -stream, also replay with per-frame compression negotiated")
	flag.IntVar(&cfg.writes, "writes", 0, "remote: also replay this many puts per selected transport (the daemon must run with -data)")
	flag.Parse()
	// -cachesize is the cold-cache dial: unlike -cache, an explicit 0 means
	// "no cache at all", so every query pays the full decomposition + scan.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "cachesize" {
			if cacheSize <= 0 {
				cfg.cache = -1
			} else {
				cfg.cache = cacheSize
			}
		}
	})

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfcserve:", err)
		os.Exit(1)
	}
	err = run(cfg, os.Stdout)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfcserve:", err)
		os.Exit(1)
	}
}

// replayResult is one trace replay's outcome.
type replayResult struct {
	Shards     int     `json:"shards"`
	Queries    int     `json:"queries"`
	Elapsed    float64 `json:"elapsed_sec"`
	Throughput float64 `json:"throughput_qps"`
	HitRate    float64 `json:"cache_hit_rate"`
	Coalesced  float64 `json:"coalesce_rate"`
	Degraded   float64 `json:"degraded_fraction"`
	PagesRead  int64   `json:"pages_leaf_read"`
}

func run(cfg config, w io.Writer) error {
	if cfg.trace != "synthetic" {
		return fmt.Errorf("unknown trace kind %q (only \"synthetic\")", cfg.trace)
	}
	if cfg.queries < 1 || cfg.clients < 1 || cfg.distinct < 1 {
		return fmt.Errorf("need positive -queries, -clients, -distinct")
	}
	if cfg.zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1")
	}
	if cfg.remote != "" {
		return runRemote(cfg, w)
	}
	u, err := grid.New(cfg.d, cfg.k)
	if err != nil {
		return err
	}
	c, err := curve.ByName(cfg.curveName, u, cfg.seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	recs := make([]store.Record, cfg.records)
	for i := range recs {
		p := u.NewPoint()
		for d := range p {
			p[d] = rng.Uint32() % u.Side()
		}
		recs[i] = store.Record{Point: p, Payload: uint64(i)}
	}
	boxes, err := syntheticBoxes(u, cfg.distinct, cfg.boxSide, rng)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "curve=%s universe=%v records=%d queries=%d distinct=%d zipf=%.2f clients=%d\n",
		c.Name(), u, cfg.records, cfg.queries, cfg.distinct, cfg.zipfS, cfg.clients)

	res, rep, err := replay(c, recs, boxes, cfg, cfg.shards, cfg.cache)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nshards=%d metrics:\n%s", cfg.shards, rep)
	fmt.Fprintf(w, "derived: cache_hit_rate=%.3f coalesce_rate=%.3f degraded_fraction=%.3f pages/query=%.1f\n",
		res.HitRate, res.Coalesced, res.Degraded, float64(res.PagesRead)/float64(res.Queries))
	fmt.Fprintf(w, "throughput: %d queries in %.3fs = %.0f queries/s (%d shards)\n",
		res.Queries, res.Elapsed, res.Throughput, cfg.shards)

	out := map[string]any{"config": cfg.public(), "sharded": res}
	if cfg.compare && cfg.shards != 1 {
		base, _, err := replay(c, recs, boxes, cfg, 1, cfg.cache)
		if err != nil {
			return err
		}
		speedup := res.Throughput / base.Throughput
		fmt.Fprintf(w, "baseline:   %d queries in %.3fs = %.0f queries/s (1 shard)\n",
			base.Queries, base.Elapsed, base.Throughput)
		fmt.Fprintf(w, "speedup: %.2fx (%d shards vs 1)\n", speedup, cfg.shards)
		out["baseline"] = base
		out["speedup"] = speedup
	}
	if cfg.cold {
		// Cold section: the cache disabled, so every query pays its full
		// decomposition and shard scans. The warm numbers above flatter the
		// sharding comparison — a ~95% hit rate means most queries never
		// touch the shards — so the cold section is where the scan-path
		// speedup actually shows.
		coldRes, _, err := replay(c, recs, boxes, cfg, cfg.shards, -1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cold (no cache): %d queries in %.3fs = %.0f queries/s (%d shards), pages/query=%.1f\n",
			coldRes.Queries, coldRes.Elapsed, coldRes.Throughput, cfg.shards,
			float64(coldRes.PagesRead)/float64(coldRes.Queries))
		coldOut := map[string]any{"sharded": coldRes}
		if cfg.compare && cfg.shards != 1 {
			coldBase, _, err := replay(c, recs, boxes, cfg, 1, -1)
			if err != nil {
				return err
			}
			speedup := coldRes.Throughput / coldBase.Throughput
			fmt.Fprintf(w, "cold baseline:   %d queries in %.3fs = %.0f queries/s (1 shard)\n",
				coldBase.Queries, coldBase.Elapsed, coldBase.Throughput)
			fmt.Fprintf(w, "cold speedup: %.2fx (%d shards vs 1)\n", speedup, cfg.shards)
			coldOut["baseline"] = coldBase
			coldOut["speedup"] = speedup
		}
		out["cold"] = coldOut
	}
	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.jsonPath)
	}
	return nil
}

// public strips the non-serializable bits of the config for the JSON dump.
func (cfg config) public() map[string]any {
	return map[string]any{
		"curve": cfg.curveName, "d": cfg.d, "k": cfg.k,
		"records": cfg.records, "queries": cfg.queries,
		"shards": cfg.shards, "clients": cfg.clients,
		"distinct": cfg.distinct, "zipf": cfg.zipfS,
		"box": cfg.boxSide, "seed": cfg.seed,
		"transport": cfg.transport, "cache": cfg.cache,
		"stream": cfg.stream, "compress": cfg.compress,
		"writes": cfg.writes,
	}
}

// replay runs the full trace against a fresh service with the given shard
// count and cache capacity, returning the measured result plus the metrics
// report.
func replay(c curve.Curve, recs []store.Record, boxes []query.Box, cfg config, shards, cache int) (replayResult, string, error) {
	opts := []service.Option{service.WithShards(shards), service.WithCacheSize(cache)}
	if cfg.workers > 0 {
		opts = append(opts, service.WithWorkers(cfg.workers))
	}
	svc, err := service.New(c, recs, opts...)
	if err != nil {
		return replayResult{}, "", err
	}
	defer svc.Close()

	ctx := context.Background()
	perClient := cfg.queries / cfg.clients
	extra := cfg.queries % cfg.clients
	var wg sync.WaitGroup
	errc := make(chan error, cfg.clients)
	start := time.Now()
	for g := 0; g < cfg.clients; g++ {
		n := perClient
		if g < extra {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			// Per-client zipf stream, seeded distinctly but deterministically.
			lr := rand.New(rand.NewSource(cfg.seed + int64(g)*7919))
			zipf := rand.NewZipf(lr, cfg.zipfS, 1, uint64(len(boxes)-1))
			for i := 0; i < n; i++ {
				if _, err := svc.Range(ctx, boxes[zipf.Uint64()]); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		if err != nil {
			return replayResult{}, "", err
		}
	}

	reg := svc.Metrics()
	hits := reg.Counter("cache.hits").Value()
	misses := reg.Counter("cache.misses").Value()
	shared := reg.Counter("coalesce.shared").Value()
	total := reg.Counter("queries.total").Value()
	res := replayResult{
		Shards:     shards,
		Queries:    cfg.queries,
		Elapsed:    elapsed.Seconds(),
		Throughput: float64(cfg.queries) / elapsed.Seconds(),
		PagesRead:  reg.Counter("pages.leaf_read").Value(),
	}
	if lookups := hits + misses + shared; lookups > 0 {
		res.HitRate = float64(hits) / float64(lookups)
		res.Coalesced = float64(shared) / float64(lookups)
	}
	if total > 0 {
		res.Degraded = float64(reg.Counter("queries.degraded").Value()) / float64(total)
	}
	return res, reg.Report(), nil
}

// remoteResult is one over-the-wire replay's outcome. Shed counts 429
// responses observed (including ones a retry later served); ShedRate is
// sheds per HTTP attempt; Failed counts queries whose retry budget was
// exhausted by shedding.
type remoteResult struct {
	Queries      int     `json:"queries"`
	Served       int64   `json:"served"`
	Failed       int64   `json:"failed"`
	Attempts     int64   `json:"attempts"`
	Retries      int64   `json:"retries"`
	Shed         int64   `json:"shed"`
	ShedRate     float64 `json:"shed_rate"`
	Degraded     int64   `json:"degraded"`
	DegradedRate float64 `json:"degraded_rate"`
	Elapsed      float64 `json:"elapsed_sec"`
	Throughput   float64 `json:"throughput_qps"`
	P50US        int64   `json:"p50_us"`
	P99US        int64   `json:"p99_us"`
	MaxUS        int64   `json:"max_us"`
	// Stream marks a replay consumed through the streaming surface; the
	// TTFB quantiles are then time to the first batch, while P50US/P99US
	// still measure the fully drained result. On a buffered replay TTFB
	// equals the full latency — the caller sees nothing earlier.
	Stream    bool  `json:"stream"`
	P50TTFBUS int64 `json:"p50_ttfb_us"`
	P99TTFBUS int64 `json:"p99_ttfb_us"`
	// PeakRSSKB samples the replay process's RSS high watermark (VmHWM,
	// reset per replay where the kernel allows) — the client-side
	// full-result vs streamed buffering difference.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// runRemote replays the zipf trace over the wire against a live sfcserved
// daemon, over the JSON transport, the binary wire transport, or both
// (printing the A/B speedup). The -d/-k/-distinct/-box/-seed flags must
// describe the same universe the daemon was started with, or every query
// 400s.
func runRemote(cfg config, w io.Writer) error {
	if cfg.transport == "" {
		cfg.transport = "json"
	}
	if cfg.transport != "json" && cfg.transport != "binary" && cfg.transport != "both" {
		return fmt.Errorf("-transport %q: want json, binary, or both", cfg.transport)
	}
	u, err := grid.New(cfg.d, cfg.k)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	boxes, err := syntheticBoxes(u, cfg.distinct, cfg.boxSide, rng)
	if err != nil {
		return err
	}
	cl := client.New(cfg.remote)
	defer cl.Close()
	ctx := context.Background()
	if ok, err := cl.Readyz(ctx); err != nil {
		return fmt.Errorf("remote %s unreachable: %w", cfg.remote, err)
	} else if !ok {
		return fmt.Errorf("remote %s is not ready (draining?)", cfg.remote)
	}

	fmt.Fprintf(w, "remote=%s universe=%v queries=%d distinct=%d zipf=%.2f clients=%d transport=%s\n",
		cfg.remote, u, cfg.queries, cfg.distinct, cfg.zipfS, cfg.clients, cfg.transport)

	out := map[string]any{"config": cfg.public()}
	var all []remoteResult
	var jsonRes, binRes remoteResult
	if cfg.transport == "json" || cfg.transport == "both" {
		jsonRes, err = replayRemote(ctx, cfg, boxes, cl, "json", false, w)
		if err != nil {
			return err
		}
		out["remote"] = jsonRes
		all = append(all, jsonRes)
	}
	if cfg.transport == "binary" || cfg.transport == "both" {
		addr, err := cl.WireAddr(ctx)
		if err != nil {
			return err
		}
		if addr == "" {
			return fmt.Errorf("remote %s does not advertise a wire address (start sfcserved with -wire-addr)", cfg.remote)
		}
		bcl := client.New(cfg.remote, client.WithTransport(&client.BinaryTransport{Addr: addr}))
		defer bcl.Close()
		binRes, err = replayRemote(ctx, cfg, boxes, bcl, "binary "+addr, false, w)
		if err != nil {
			return err
		}
		out["remote_binary"] = binRes
		all = append(all, binRes)
		if cfg.stream {
			// Streamed A/B: identical trace, results consumed batch by
			// batch as the server's shard merge produces them. TTFB is the
			// headline; full-drain latency shows the (non-)regression.
			scl := client.New(cfg.remote, client.WithTransport(&client.BinaryTransport{Addr: addr}))
			defer scl.Close()
			streamRes, err := replayRemote(ctx, cfg, boxes, scl, "binary+stream", true, w)
			if err != nil {
				return err
			}
			out["remote_binary_stream"] = streamRes
			all = append(all, streamRes)
			if binRes.P50US > 0 {
				earlier := float64(binRes.P50US) / float64(streamRes.P50TTFBUS)
				fmt.Fprintf(w, "ttfb: streamed p50=%dus vs full-result p50=%dus (%.2fx earlier)\n",
					streamRes.P50TTFBUS, binRes.P50US, earlier)
				out["ttfb_speedup"] = earlier
			}
			if cfg.compress {
				ccl := client.New(cfg.remote, client.WithTransport(&client.BinaryTransport{Addr: addr, Compress: true}))
				defer ccl.Close()
				compRes, err := replayRemote(ctx, cfg, boxes, ccl, "binary+stream+deflate", true, w)
				if err != nil {
					return err
				}
				out["remote_binary_stream_compress"] = compRes
				all = append(all, compRes)
			}
		}
	}
	if cfg.transport == "both" {
		speedup := binRes.Throughput / jsonRes.Throughput
		fmt.Fprintf(w, "speedup: %.2fx (binary vs JSON)\n", speedup)
		out["speedup"] = speedup
	}

	if cfg.writes > 0 {
		if err := runRemoteWrites(ctx, cfg, u, cl, out, w); err != nil {
			return err
		}
	}

	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.jsonPath)
	}
	for _, res := range all {
		if res.ShedRate > cfg.maxShed {
			return fmt.Errorf("shed rate %.4f exceeds -maxshed %.4f", res.ShedRate, cfg.maxShed)
		}
	}
	return nil
}

// replayRemote replays the full zipf trace through cl and reports the
// client-side view: latency quantiles, throughput, shed and degraded
// rates. Each call uses its own client so the attempt/retry/shed counters
// are per-transport. With stream set, queries go through the streaming
// surface: time-to-first-batch is observed when the first batch lands and
// the latency quantiles when the stream is fully drained.
func replayRemote(ctx context.Context, cfg config, boxes []query.Box, cl *client.Client, label string, stream bool, w io.Writer) (remoteResult, error) {
	// Exact quantiles from raw samples: the A/B columns (streamed TTFB vs
	// full-result p50) need microsecond resolution, which the registry's
	// log-bucketed histograms round away.
	var lat, ttfb samples
	resetPeakRSS()
	var served, failed, degraded atomic.Int64
	perClient := cfg.queries / cfg.clients
	extra := cfg.queries % cfg.clients
	var wg sync.WaitGroup
	errc := make(chan error, cfg.clients)
	start := time.Now()
	for g := 0; g < cfg.clients; g++ {
		n := perClient
		if g < extra {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			// Per-client zipf stream, seeded exactly like the in-process replay.
			lr := rand.New(rand.NewSource(cfg.seed + int64(g)*7919))
			zipf := rand.NewZipf(lr, cfg.zipfS, 1, uint64(len(boxes)-1))
			for i := 0; i < n; i++ {
				t0 := time.Now()
				var complete bool
				var err error
				if stream {
					complete, err = drainStreamed(ctx, cfg, cl, boxes[zipf.Uint64()], t0, &ttfb)
				} else {
					var resp server.QueryResponse
					resp, err = cl.QueryBox(ctx, boxes[zipf.Uint64()], client.WithTimeout(cfg.rtimeout))
					complete = resp.Complete
					if err == nil {
						// Buffered: the first usable byte is the last one.
						ttfb.observe(time.Since(t0).Microseconds())
					}
				}
				switch {
				case err == nil:
					lat.observe(time.Since(t0).Microseconds())
					served.Add(1)
					// Degraded answers (dark intervals reported) count as
					// served but are tracked separately: against a cluster
					// router this is the availability story, not an error.
					if !complete {
						degraded.Add(1)
					}
				case errors.Is(err, client.ErrOverloaded):
					// Shed past the retry budget: load-test data, not fatal.
					failed.Add(1)
				default:
					errc <- err
					return
				}
			}
			errc <- nil
		}(g, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		if err != nil {
			return remoteResult{}, err
		}
	}

	st := cl.Stats()
	res := remoteResult{
		Queries:    cfg.queries,
		Served:     served.Load(),
		Failed:     failed.Load(),
		Attempts:   st.Attempts,
		Retries:    st.Retries,
		Shed:       st.Shed,
		Degraded:   degraded.Load(),
		Elapsed:    elapsed.Seconds(),
		Throughput: float64(served.Load()) / elapsed.Seconds(),
		P50US:      lat.quantile(0.50),
		P99US:      lat.quantile(0.99),
		MaxUS:      lat.max(),
		Stream:     stream,
		P50TTFBUS:  ttfb.quantile(0.50),
		P99TTFBUS:  ttfb.quantile(0.99),
		PeakRSSKB:  peakRSSKB(),
	}
	if st.Attempts > 0 {
		res.ShedRate = float64(st.Shed) / float64(st.Attempts)
	}
	if res.Served > 0 {
		res.DegradedRate = float64(res.Degraded) / float64(res.Served)
	}
	fmt.Fprintf(w, "\n[%s] served=%d failed=%d degraded=%d attempts=%d retries=%d shed=%d shed_rate=%.4f degraded_rate=%.4f\n",
		label, res.Served, res.Failed, res.Degraded, res.Attempts, res.Retries, res.Shed, res.ShedRate, res.DegradedRate)
	fmt.Fprintf(w, "[%s] latency: p50=%dus p99=%dus max=%dus ttfb_p50=%dus ttfb_p99=%dus peak_rss=%dKB\n",
		label, res.P50US, res.P99US, res.MaxUS, res.P50TTFBUS, res.P99TTFBUS, res.PeakRSSKB)
	fmt.Fprintf(w, "[%s] throughput: %d served in %.3fs = %.0f queries/s\n",
		label, res.Served, res.Elapsed, res.Throughput)
	return res, nil
}

// writeResult is one put-replay's outcome: the write-throughput half of
// the JSON-vs-binary A/B.
type writeResult struct {
	Puts       int     `json:"puts"`
	Acked      int64   `json:"acked"`
	Failed     int64   `json:"failed"` // shed or maybe-applied past the budget
	Elapsed    float64 `json:"elapsed_sec"`
	Throughput float64 `json:"throughput_wps"`
	P50US      int64   `json:"p50_us"`
	P99US      int64   `json:"p99_us"`
	MaxUS      int64   `json:"max_us"`
}

// runRemoteWrites replays cfg.writes puts per selected transport against
// the remote daemon and records the write-throughput sections. The daemon
// must expose the durable write path (-data); payload namespaces are
// disjoint per transport so the replays never collide.
func runRemoteWrites(ctx context.Context, cfg config, u *grid.Universe, cl *client.Client, out map[string]any, w io.Writer) error {
	info, found, err := cl.WireInfo(ctx)
	if err != nil {
		return fmt.Errorf("-writes: %w", err)
	}
	if found && !info.Write {
		return fmt.Errorf("-writes: remote %s is read-only (start sfcserved with -data)", cfg.remote)
	}
	var jsonWr, binWr writeResult
	if cfg.transport == "json" || cfg.transport == "both" {
		wcl := client.New(cfg.remote)
		defer wcl.Close()
		jsonWr, err = replayRemoteWrites(ctx, cfg, u, wcl, "json+puts", 1<<41, w)
		if err != nil {
			return err
		}
		out["remote_writes"] = jsonWr
	}
	if cfg.transport == "binary" || cfg.transport == "both" {
		addr, err := cl.WireAddr(ctx)
		if err != nil {
			return err
		}
		if addr == "" {
			return fmt.Errorf("-writes: remote %s does not advertise a wire address (start sfcserved with -wire-addr)", cfg.remote)
		}
		wcl := client.New(cfg.remote, client.WithTransport(&client.BinaryTransport{Addr: addr}))
		defer wcl.Close()
		binWr, err = replayRemoteWrites(ctx, cfg, u, wcl, "binary+puts", 1<<42, w)
		if err != nil {
			return err
		}
		out["remote_binary_writes"] = binWr
	}
	if cfg.transport == "both" && jsonWr.Throughput > 0 {
		speedup := binWr.Throughput / jsonWr.Throughput
		fmt.Fprintf(w, "write speedup: %.2fx (binary vs JSON puts)\n", speedup)
		out["write_speedup"] = speedup
	}
	return nil
}

// replayRemoteWrites drives cfg.writes puts at random points through cl
// with cfg.clients concurrent writers. A put is never retried after it may
// have left the client (it is not idempotent), so shed and maybe-applied
// outcomes count as failed rather than fatal; any other error aborts.
func replayRemoteWrites(ctx context.Context, cfg config, u *grid.Universe, cl *client.Client, label string, payloadBase uint64, w io.Writer) (writeResult, error) {
	var lat samples
	var acked, failed atomic.Int64
	perClient := cfg.writes / cfg.clients
	extra := cfg.writes % cfg.clients
	var wg sync.WaitGroup
	errc := make(chan error, cfg.clients)
	start := time.Now()
	for g := 0; g < cfg.clients; g++ {
		n := perClient
		if g < extra {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			lr := rand.New(rand.NewSource(cfg.seed + int64(g)*104729))
			for i := 0; i < n; i++ {
				p := u.NewPoint()
				for d := range p {
					p[d] = uint32(lr.Intn(int(u.Side())))
				}
				rec := store.Record{Point: p, Payload: payloadBase + uint64(g)<<24 + uint64(i)}
				t0 := time.Now()
				ack, err := cl.Put(ctx, rec, client.WithTimeout(cfg.rtimeout))
				var maybe *client.MaybeAppliedError
				switch {
				case err == nil && ack.OK:
					lat.observe(time.Since(t0).Microseconds())
					acked.Add(1)
				case errors.Is(err, client.ErrOverloaded) || errors.As(err, &maybe):
					failed.Add(1)
				default:
					errc <- fmt.Errorf("%s: put %d/%d: %w", label, g, i, err)
					return
				}
			}
			errc <- nil
		}(g, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		if err != nil {
			return writeResult{}, err
		}
	}
	res := writeResult{
		Puts:       cfg.writes,
		Acked:      acked.Load(),
		Failed:     failed.Load(),
		Elapsed:    elapsed.Seconds(),
		Throughput: float64(acked.Load()) / elapsed.Seconds(),
		P50US:      lat.quantile(0.50),
		P99US:      lat.quantile(0.99),
		MaxUS:      lat.max(),
	}
	fmt.Fprintf(w, "\n[%s] acked=%d failed=%d\n", label, res.Acked, res.Failed)
	fmt.Fprintf(w, "[%s] latency: p50=%dus p99=%dus max=%dus\n", label, res.P50US, res.P99US, res.MaxUS)
	fmt.Fprintf(w, "[%s] throughput: %d acked in %.3fs = %.0f puts/s\n", label, res.Acked, res.Elapsed, res.Throughput)
	return res, nil
}

// samples collects raw microsecond observations for exact quantiles —
// the streamed-vs-full TTFB comparison needs more resolution than
// log-bucketed histograms give.
type samples struct {
	mu sync.Mutex
	v  []int64
}

func (s *samples) observe(us int64) {
	s.mu.Lock()
	s.v = append(s.v, us)
	s.mu.Unlock()
}

// quantile returns the exact q-quantile by nearest rank; 0 when empty.
func (s *samples) quantile(q float64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.v) == 0 {
		return 0
	}
	sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
	i := int(q * float64(len(s.v)-1))
	return s.v[i]
}

func (s *samples) max() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m int64
	for _, v := range s.v {
		if v > m {
			m = v
		}
	}
	return m
}

// drainStreamed runs one box query through the streaming surface: the TTFB
// observation lands when the first batch (or an immediately empty stream)
// arrives, then the stream is drained to completion. Returns whether the
// answer was complete (no dark intervals).
func drainStreamed(ctx context.Context, cfg config, cl *client.Client, b query.Box, t0 time.Time, ttfb *samples) (bool, error) {
	st, err := cl.QueryBoxStream(ctx, b, client.WithTimeout(cfg.rtimeout))
	if err != nil {
		return false, err
	}
	defer st.Close()
	first := true
	for {
		_, err := st.Next()
		if first {
			ttfb.observe(time.Since(t0).Microseconds())
			first = false
		}
		if err == io.EOF {
			tr, _ := st.Trailer()
			return tr.Complete(), nil
		}
		if err != nil {
			return false, err
		}
	}
}

// resetPeakRSS clears the kernel's RSS high watermark so each replay
// samples its own peak; best-effort, Linux-only (clear_refs code 5).
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB reads VmHWM from /proc/self/status, in KiB; 0 when unavailable.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// syntheticBoxes builds the trace's box population: random corners, sides
// capped at maxSide cells per dimension.
func syntheticBoxes(u *grid.Universe, n, maxSide int, rng *rand.Rand) ([]query.Box, error) {
	if maxSide < 1 {
		return nil, fmt.Errorf("-box must be >= 1")
	}
	boxes := make([]query.Box, n)
	for i := range boxes {
		lo, hi := u.NewPoint(), u.NewPoint()
		for d := range lo {
			a := rng.Uint32() % u.Side()
			side := uint32(1 + rng.Intn(maxSide))
			b := a + side - 1
			if b >= u.Side() {
				b = u.Side() - 1
			}
			lo[d], hi[d] = a, b
		}
		b, err := query.NewBox(u, lo, hi)
		if err != nil {
			return nil, err
		}
		boxes[i] = b
	}
	return boxes, nil
}

// writeJSON marshals v with encoding/json and writes it to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
