// Command sfcserved is the networked query daemon: it bulkloads a
// synthetic record set into the sharded query service and serves it over
// HTTP/JSON (internal/server) until SIGTERM/SIGINT, at which point it
// drains — stops accepting, finishes inflight queries up to the drain
// deadline — and exits 0 on a clean drain.
//
// With -wire-addr the daemon additionally serves the binary wire protocol
// (internal/wire) on a second port — pipelined requests, streamed scan
// results — sharing the HTTP mux's admission control, deadline clamps, and
// drain lifecycle. The address is advertised via GET /wireinfo so clients
// and the cluster router upgrade automatically.
//
// With -data the shards are durable: each lives under <data>/shard-<j>/
// with a write-ahead log, the synthetic records seed the directory only on
// first start, POST /put, /delete and /flush mutate the set, and a restart
// (clean or after a kill) recovers exactly the acknowledged writes.
//
// With -cluster-nodes the daemon is one member of an N-node cluster: it
// derives the shared placement plan (internal/cluster) from
// -curve/-d/-k/-seed, bulkloads only the curve ranges it holds (its home
// segment plus the R−1 predecessor segments it replicates), and serves
// them via /scan to a cluster router (cmd/sfcrouter). See docs/CLUSTER.md.
//
// Usage:
//
//	sfcserved -addr 127.0.0.1:7171 -curve hilbert -d 2 -k 6 -records 50000
//	sfcserved -addr 127.0.0.1:7171 -wire-addr 127.0.0.1:7173
//	sfcserved -data /var/lib/sfc -records 50000
//	sfcserved -max-inflight 16 -queue-wait 50ms -drain-timeout 10s -pprof
//	sfcserved -addr 127.0.0.1:7181 -cluster-nodes 3 -cluster-node 0 -cluster-replicas 2
//
// Query it with internal/client or any HTTP client:
//
//	curl 'http://127.0.0.1:7171/query?lo=3,4&hi=9,12&timeout=250ms'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/service"
)

type config struct {
	addr      string
	wireAddr  string
	curveName string
	d, k      int
	records   int
	shards    int
	workers   int
	cache     int
	page      int
	seed      int64
	data      string

	clusterNodes    int
	clusterNode     int
	clusterReplicas int

	maxInflight  int
	queueWait    time.Duration
	timeout      time.Duration
	maxTimeout   time.Duration
	drainTimeout time.Duration
	pprof        bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7171", "listen address")
	flag.StringVar(&cfg.wireAddr, "wire-addr", "", "binary wire protocol listen address (empty = JSON only); advertised via /wireinfo")
	flag.StringVar(&cfg.curveName, "curve", "hilbert", fmt.Sprintf("curve name %v", curve.Names()))
	flag.IntVar(&cfg.d, "d", 2, "dimensions")
	flag.IntVar(&cfg.k, "k", 6, "log2 side length (n = 2^(d·k) cells)")
	flag.IntVar(&cfg.records, "records", 50_000, "records bulkloaded into the shards")
	flag.IntVar(&cfg.shards, "shards", 4, "store shards")
	flag.IntVar(&cfg.workers, "workers", 0, "service worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.cache, "cache", 0, "decomposition cache entries (0 = default, negative = off)")
	flag.IntVar(&cfg.page, "page", 0, "leaf page size in records (0 = store default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the synthetic records")
	flag.StringVar(&cfg.data, "data", "", "durable data directory (empty = in-memory, read-only)")
	flag.IntVar(&cfg.clusterNodes, "cluster-nodes", 0, "cluster size N (0 = standalone; nodes derive placement from -curve/-d/-k/-seed)")
	flag.IntVar(&cfg.clusterNode, "cluster-node", 0, "this node's index in [0, cluster-nodes)")
	flag.IntVar(&cfg.clusterReplicas, "cluster-replicas", 2, "replication factor R (1 <= R <= cluster-nodes)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "concurrent query bound (0 = 4×GOMAXPROCS)")
	flag.DurationVar(&cfg.queueWait, "queue-wait", server.DefaultQueueWait, "admission queue-wait budget before shedding with 429")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "default per-request deadline when ?timeout is absent (0 = none)")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "cap on the per-request ?timeout parameter")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long a drain waits for inflight queries")
	flag.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sfcserved:", err)
		os.Exit(1)
	}
}

// run builds the service, binds the listener, reports the bound address via
// ready (tests listen on :0), and serves until ctx is canceled — then
// drains. A clean drain returns nil.
func run(ctx context.Context, cfg config, ready func(addr string), w io.Writer) error {
	u, err := grid.New(cfg.d, cfg.k)
	if err != nil {
		return err
	}
	c, err := curve.ByName(cfg.curveName, u, cfg.seed)
	if err != nil {
		return err
	}
	// The synthetic record set is a pure function of (universe, seed): in
	// cluster mode every node generates the identical set and keeps only
	// its held ranges, so no seed data crosses the wire, and the chaos
	// campaign regenerates the same set in-process as its ground truth.
	recs := chaos.SyntheticRecords(u, cfg.seed, cfg.records)
	var clusterInfo string
	if cfg.clusterNodes > 0 {
		if cfg.clusterNode < 0 || cfg.clusterNode >= cfg.clusterNodes {
			return fmt.Errorf("-cluster-node %d outside [0, %d)", cfg.clusterNode, cfg.clusterNodes)
		}
		topo, err := cluster.NewTopology(c, cfg.clusterNodes, cfg.clusterReplicas)
		if err != nil {
			return err
		}
		held := recs[:0]
		for _, r := range recs {
			if topo.HoldsKey(cfg.clusterNode, c.Index(r.Point)) {
				held = append(held, r)
			}
		}
		recs = held
		clusterInfo = fmt.Sprintf(" cluster=%d/%d replicas=%d held=%d",
			cfg.clusterNode, cfg.clusterNodes, cfg.clusterReplicas, len(recs))
	}

	svcOpts := []service.Option{
		service.WithShards(cfg.shards),
		service.WithCacheSize(cfg.cache),
	}
	if cfg.data != "" {
		svcOpts = append(svcOpts, service.WithDurableDir(cfg.data))
	}
	if cfg.workers > 0 {
		svcOpts = append(svcOpts, service.WithWorkers(cfg.workers))
	}
	if cfg.page > 0 {
		svcOpts = append(svcOpts, service.WithPageSize(cfg.page))
	}
	svc, err := service.New(c, recs, svcOpts...)
	if err != nil {
		return err
	}

	srvOpts := []server.Option{
		server.WithQueueWait(cfg.queueWait),
		server.WithMaxTimeout(cfg.maxTimeout),
	}
	if cfg.maxInflight > 0 {
		srvOpts = append(srvOpts, server.WithMaxInflight(cfg.maxInflight))
	}
	if cfg.timeout > 0 {
		srvOpts = append(srvOpts, server.WithDefaultTimeout(cfg.timeout))
	}
	if cfg.pprof {
		srvOpts = append(srvOpts, server.WithPprof())
	}
	srv, err := server.New(svc, srvOpts...)
	if err != nil {
		svc.Close()
		return err
	}

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		svc.Close()
		return err
	}
	var wl net.Listener
	var wireInfo string
	if cfg.wireAddr != "" {
		if wl, err = net.Listen("tcp", cfg.wireAddr); err != nil {
			l.Close()
			svc.Close()
			return err
		}
		wireInfo = " wire=" + wl.Addr().String()
	}
	mode := "in-memory"
	if svc.DurableMode() {
		mode = "durable:" + cfg.data
	}
	fmt.Fprintf(w, "sfcserved: serving curve=%s universe=%v records=%d shards=%d mode=%s%s%s on %s\n",
		c.Name(), u, len(recs), cfg.shards, mode, clusterInfo, wireInfo, l.Addr())
	if ready != nil {
		ready(l.Addr().String())
	}
	return srv.Run(ctx, l, wl, cfg.drainTimeout, func(format string, args ...any) {
		fmt.Fprintf(w, "sfcserved: "+format+"\n", args...)
	})
}
