// Command sfcrouter is the cluster query router: it fronts N sfcserved
// members (each started with -cluster-nodes/-cluster-node so all sides
// derive the same placement plan from -curve/-d/-k/-seed), decomposes each
// box query into curve intervals, clips them to per-node ownership,
// scatter-gathers over the members with per-node deadlines and hedged
// fallback to replicas, and merges the answers in curve order. Member
// failures surface as exact dark intervals in the response — degraded,
// never silently incomplete — and a background prober revives members that
// come back. See docs/CLUSTER.md.
//
// The daemon is the same server.Server sfcserved runs, over the router as
// its backend instead of one node's shards: every endpoint of both doors
// (/query /scan /digest /put /delete /flush /metrics /healthz /readyz
// /wireinfo, and with -wire-addr the binary protocol, streaming merged
// TBatch frames segment by segment), admission control, deadline clamping,
// Retry-After and drain are inherited, so clients (internal/client, curl)
// work against a router unchanged. /topology, the live ownership ledger, is
// the one endpoint it adds.
//
// With -write-quorum W ≥ 1 the write endpoints fan each write out to every
// live replica of the owning segment and acknowledge once W members have
// applied it durably; replicas that were dead are recorded as misses and
// reconciled by anti-entropy catch-up before the prober revives them.
// Members must have been started with -data. Without the flag the router
// is read-only.
//
// Scatter legs upgrade to the binary wire protocol per member: the router
// asks each member's /wireinfo at startup and speaks binary (internal/wire)
// to members that advertise a wire listener, JSON to the rest. The startup
// banner lists the transport chosen for each member.
//
// Usage:
//
//	sfcrouter -addr 127.0.0.1:7170 -wire-addr 127.0.0.1:7171 \
//	  -nodes http://127.0.0.1:7181,http://127.0.0.1:7182,http://127.0.0.1:7183 \
//	  -replicas 2 -curve hilbert -d 2 -k 6 -seed 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/server"
)

type config struct {
	addr      string
	wireAddr  string
	nodes     string
	replicas  int
	curveName string
	d, k      int
	seed      int64

	nodeTimeout   time.Duration
	hedgeDelay    time.Duration
	probeInterval time.Duration
	maxTimeout    time.Duration
	drainTimeout  time.Duration
	writeQuorum   int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7170", "listen address")
	flag.StringVar(&cfg.wireAddr, "wire-addr", "", "binary wire protocol listen address (empty = JSON only); advertised via /wireinfo")
	flag.StringVar(&cfg.nodes, "nodes", "", "comma-separated member base URLs, in node-index order (required)")
	flag.IntVar(&cfg.replicas, "replicas", 2, "replication factor R the members were started with")
	flag.StringVar(&cfg.curveName, "curve", "hilbert", fmt.Sprintf("curve name %v", curve.Names()))
	flag.IntVar(&cfg.d, "d", 2, "dimensions")
	flag.IntVar(&cfg.k, "k", 6, "log2 side length (n = 2^(d·k) cells)")
	flag.Int64Var(&cfg.seed, "seed", 1, "placement seed — must match the members'")
	flag.DurationVar(&cfg.nodeTimeout, "node-timeout", 2*time.Second, "per-member request deadline")
	flag.DurationVar(&cfg.hedgeDelay, "hedge-delay", 50*time.Millisecond, "wait before racing the next replica (0 = failover only)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", time.Second, "how often dead members are probed for revival (0 = never)")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "cap on the deadline a request may ask for")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long a drain waits for inflight queries")
	flag.IntVar(&cfg.writeQuorum, "write-quorum", 0, "replicas that must durably apply a write before it is acknowledged (0 = read-only router)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sfcrouter:", err)
		os.Exit(1)
	}
}

// run builds the router, binds the listener, reports the bound address via
// ready (tests listen on :0), and serves until ctx is canceled — then
// drains. A clean drain returns nil.
func run(ctx context.Context, cfg config, ready func(addr string), w io.Writer) error {
	urls := splitNodes(cfg.nodes)
	if len(urls) == 0 {
		return errors.New("-nodes is required (comma-separated member URLs)")
	}
	u, err := grid.New(cfg.d, cfg.k)
	if err != nil {
		return err
	}
	c, err := curve.ByName(cfg.curveName, u, cfg.seed)
	if err != nil {
		return err
	}
	topo, err := cluster.NewTopology(c, len(urls), cfg.replicas)
	if err != nil {
		return err
	}
	nodes := make([]cluster.Node, len(urls))
	transports := make([]string, len(urls))
	for i, nu := range urls {
		// Each member gets its own client, hence its own retry budget; the
		// policy is kept snappy so failover to a replica beats a long local
		// retry dance.
		opts := []client.Option{client.WithRetryPolicy(client.RetryPolicy{
			MaxAttempts: 2,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
		})}
		// Per-member upgrade: a member that advertises a wire listener is
		// spoken to in binary, reads and writes alike; one that does not
		// (flag unset, or not up yet) over JSON.
		transports[i] = "json"
		dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		addr, err := client.New(nu).WireAddr(dctx)
		cancel()
		if err == nil && addr != "" {
			opts = append(opts, client.WithTransport(&client.BinaryTransport{Addr: addr}))
			transports[i] = "binary:" + addr
		}
		nodes[i] = cluster.NewClientNode(client.New(nu, opts...))
	}
	rt, err := cluster.NewRouter(topo, nodes,
		cluster.WithNodeTimeout(cfg.nodeTimeout),
		cluster.WithHedgeDelay(cfg.hedgeDelay),
		cluster.WithWriteQuorum(cfg.writeQuorum))
	if err != nil {
		return err
	}
	srv, err := server.NewBackend(rt.Backend(), server.WithMaxTimeout(cfg.maxTimeout))
	if err != nil {
		return err
	}
	srv.Handle("/topology", topologyHandler(rt))

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	var wl net.Listener
	var wireInfo string
	if cfg.wireAddr != "" {
		if wl, err = net.Listen("tcp", cfg.wireAddr); err != nil {
			l.Close()
			return err
		}
		wireInfo = " wire=" + wl.Addr().String()
	}
	fmt.Fprintf(w, "sfcrouter: routing curve=%s universe=%v nodes=%d replicas=%d write-quorum=%d transports=%s%s on %s\n",
		c.Name(), u, len(urls), cfg.replicas, cfg.writeQuorum, strings.Join(transports, ","), wireInfo, l.Addr())
	if ready != nil {
		ready(l.Addr().String())
	}

	if cfg.probeInterval > 0 {
		go func() {
			t := time.NewTicker(cfg.probeInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					pctx, cancel := context.WithTimeout(ctx, cfg.probeInterval)
					rt.Probe(pctx)
					cancel()
				}
			}
		}()
	}
	return srv.Run(ctx, l, wl, cfg.drainTimeout, func(format string, args ...any) {
		fmt.Fprintf(w, "sfcrouter: "+format+"\n", args...)
	})
}

// splitNodes parses the -nodes flag, dropping empty elements.
func splitNodes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// topologyHandler serves /topology: the per-node ownership snapshot plus
// whether the ledger still tiles the curve exactly.
func topologyHandler(rt *cluster.Router) http.Handler {
	type response struct {
		Nodes     []cluster.NodeStatus `json:"nodes"`
		Conserved bool                 `json:"conserved"`
		Error     string               `json:"error,omitempty"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		resp := response{Nodes: rt.Snapshot()}
		if err := rt.Conserved(); err != nil {
			resp.Error = err.Error()
		} else {
			resp.Conserved = true
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}
