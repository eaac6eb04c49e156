package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
)

// daemon is one in-process sfcserved: the service, the server over it and
// its HTTP and wire listeners on loopback, built the way cmd/sfcserved
// builds them.
type daemon struct {
	svc      *service.Service
	srv      *server.Server
	url      string // http://host:port
	wireAddr string
	served   chan error
}

func startDaemon(c curve.Curve, recs []store.Record, opts ...service.Option) (*daemon, error) {
	svc, err := service.New(c, recs, append([]service.Option{service.WithShards(dataShards)}, opts...)...)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(svc)
	if err != nil {
		svc.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc: svc, srv: srv,
		url:      "http://" + l.Addr().String(),
		wireAddr: wl.Addr().String(),
		served:   make(chan error, 2), // one slot per listener goroutine
	}
	srv.AdvertiseWire(d.wireAddr)
	go func() { d.served <- srv.ServeWire(wl) }()
	go func() { d.served <- srv.Serve(l) }()
	// A daemon is up when both doors answer. The wire door's answer also
	// says that ServeWire has registered its listener, without which a
	// drain would leave it accepting for ever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	probe := &client.BinaryTransport{Addr: d.wireAddr, Conns: 1}
	_, err = probe.Ping(ctx)
	probe.Close()
	if err == nil {
		_, err = client.New(d.url).Readyz(ctx)
	}
	if err != nil {
		d.drain()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, nil
}

// drain shuts the daemon down the way SIGTERM does and waits for both
// listener goroutines.
func (d *daemon) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	for range 2 {
		if serr := <-d.served; err == nil {
			err = serr
		}
	}
	return err
}

// answer is what one query returned to the benchmark.
type answer struct {
	records  int
	complete bool
	// first is when the caller first held records: the first batch of a
	// streamed answer, the whole answer of a buffered one.
	first time.Time
}

// session is a workload's system under test after set-up: the daemons, one
// client per closed-loop goroutine, and the two operations.
type session struct {
	daemons []*daemon
	clients []*client.Client
	router  *cluster.Router
	legs    *legTimer // set on the router front by the traced run
	dataDir string

	// query answers box b for closed-loop client g; when dg is non-nil
	// every record is folded into it.
	query func(ctx context.Context, g int, b query.Box, dg *digest) (answer, error)
	put   func(ctx context.Context, g int, r store.Record) error
}

func (s *session) close() error {
	var err error
	for _, cl := range s.clients {
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
	}
	for _, d := range s.daemons {
		if derr := d.drain(); err == nil {
			err = derr
		}
	}
	if s.dataDir != "" {
		if rerr := os.RemoveAll(s.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

// newClient dials d the way the workload's front door asks, with a
// connection of its own: one closed-loop client never has two requests in
// flight. The connection is made here, so that set-up pays for it.
func newClient(d *daemon, f front) (*client.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f == frontJSON {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		cl := client.New(d.url, client.WithHTTPClient(hc),
			client.WithTransport(&client.JSONTransport{Base: d.url, HTTPClient: hc}))
		_, err := cl.Readyz(ctx)
		return cl, err
	}
	bt := &client.BinaryTransport{Addr: d.wireAddr, Conns: 1}
	_, err := bt.Ping(ctx)
	return client.New(d.url, client.WithTransport(bt)), err
}

// openSession is the set-up setup_s times: bulkload (or durable seeding),
// server and listener start, client dial, and for the router front the
// topology, the three members and the router.
func openSession(c curve.Curve, recs []store.Record, spec workloadSpec, cfg config) (*session, error) {
	s := &session{}
	fail := func(err error) (*session, error) {
		s.close()
		return nil, err
	}
	switch spec.front {
	case frontRouter:
		topo, err := cluster.NewTopology(c, 3, 2)
		if err != nil {
			return nil, err
		}
		nodes := make([]cluster.Node, topo.Nodes())
		for i := range nodes {
			var held []store.Record
			for _, r := range recs {
				if topo.HoldsKey(i, c.Index(r.Point)) {
					held = append(held, r)
				}
			}
			d, err := startDaemon(c, held)
			if err != nil {
				return fail(err)
			}
			s.daemons = append(s.daemons, d)
			// Member clients as cmd/sfcrouter dials them: the default
			// connection pool, and a short retry budget so that failing
			// over to a replica beats retrying locally.
			cl := client.New(d.url,
				client.WithTransport(&client.BinaryTransport{Addr: d.wireAddr}),
				client.WithRetryPolicy(client.RetryPolicy{
					MaxAttempts: 2,
					BaseBackoff: 10 * time.Millisecond,
					MaxBackoff:  50 * time.Millisecond,
				}))
			s.clients = append(s.clients, cl)
			nodes[i] = cluster.NewClientNode(cl)
			if cfg.traceLegs {
				if s.legs == nil {
					s.legs = &legTimer{}
				}
				nodes[i] = &timedNode{Node: nodes[i], t: s.legs}
			}
		}
		rt, err := cluster.NewRouter(topo, nodes)
		if err != nil {
			return fail(err)
		}
		s.router = rt
		s.query = func(ctx context.Context, _ int, b query.Box, dg *digest) (answer, error) {
			res, err := rt.Query(ctx, b)
			if err != nil {
				return answer{}, err
			}
			if dg != nil {
				dg.addRecords(res.Records)
			}
			return answer{records: len(res.Records), complete: res.Complete(), first: time.Now()}, nil
		}
		return s, nil

	case frontDurable:
		dir, err := os.MkdirTemp(cfg.outDir, "durable-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
		opts := []service.Option{service.WithDurableDir(dir)}
		if cfg.walWrap != nil {
			opts = append(opts, service.WithDurableShardOptions(func(int) []store.DurableOption {
				return []store.DurableOption{store.WithWALWrapper(cfg.walWrap)}
			}))
		}
		d, err := startDaemon(c, recs, opts...)
		if err != nil {
			return fail(err)
		}
		s.daemons = append(s.daemons, d)

	default:
		d, err := startDaemon(c, recs)
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, d)
	}

	for range cfg.clients {
		cl, err := newClient(s.daemons[0], spec.front)
		s.clients = append(s.clients, cl)
		if err != nil {
			return fail(err)
		}
	}
	s.put = func(ctx context.Context, g int, r store.Record) error {
		resp, err := s.clients[g].Put(ctx, r)
		if err == nil && !resp.OK {
			err = errors.New("put answered without ok")
		}
		return err
	}
	if spec.front == frontStream {
		s.query = func(ctx context.Context, g int, b query.Box, dg *digest) (answer, error) {
			st, err := s.clients[g].QueryBoxStream(ctx, b)
			if err != nil {
				return answer{}, err
			}
			defer st.Close()
			var a answer
			for {
				batch, err := st.Next()
				if a.first.IsZero() {
					a.first = time.Now()
				}
				if err == io.EOF {
					tr, ok := st.Trailer()
					a.complete = ok && tr.Complete()
					return a, nil
				}
				if err != nil {
					return answer{}, err
				}
				a.records += len(batch)
				if dg != nil {
					dg.addRecords(batch)
				}
			}
		}
		return s, nil
	}
	s.query = func(ctx context.Context, g int, b query.Box, dg *digest) (answer, error) {
		resp, err := s.clients[g].QueryBox(ctx, b)
		if err != nil {
			return answer{}, err
		}
		if dg != nil {
			for _, r := range resp.Records {
				dg.add(r.Point[0], r.Point[1], r.Payload)
			}
		}
		return answer{records: len(resp.Records), complete: resp.Complete, first: time.Now()}, nil
	}
	return s, nil
}

// work is a workload's generated input: the distinct boxes with the digest
// the oracle expects of each, and the operation sequence.
type work struct {
	boxes []query.Box
	want  []digest
	ops   []op
	seed  int64
	// atLeast relaxes the timed pass's count check to >=: the workload
	// writes, so a box may hold more than the seeded records.
	atLeast bool
}

// verifyBoxes asks for every distinct box once through the workload's own
// path and compares the digest of what came back with the oracle's. It is
// also the warm-up: afterwards every connection is dialled and the
// decomposition cache holds what it can.
func verifyBoxes(ctx context.Context, s *session, w *work, clients int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(w.boxes); i += clients {
				var dg digest
				a, err := s.query(ctx, g, w.boxes[i], &dg)
				switch {
				case err != nil:
					errs[g] = fmt.Errorf("box %d: %w", i, err)
				case !a.complete:
					errs[g] = fmt.Errorf("box %d: incomplete answer", i)
				case dg != w.want[i]:
					errs[g] = fmt.Errorf("box %d: digest (%d, %#x), oracle (%d, %#x)",
						i, dg.count, dg.sum, w.want[i].count, w.want[i].sum)
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// passStats is what one closed-loop pass observed.
type passStats struct {
	wall     time.Duration
	lat      []int64 // query latencies, ns
	ttfb     []int64 // query times to first records, ns
	putLat   []int64 // put latencies, ns
	records  int64
	failed   int
	firstErr error
	acked    digest // records whose put was acknowledged
}

func (p *passStats) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// timedPass runs the operation sequence closed loop: client g takes
// operations g, g+clients, …, each sent when the previous one has been
// answered in full and checked.
func timedPass(ctx context.Context, s *session, w *work, u *grid.Universe, clients int) passStats {
	per := make([]passStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &per[g]
			n := (len(w.ops) - g + clients - 1) / clients
			p.lat = make([]int64, 0, n)
			p.ttfb = make([]int64, 0, n)
			for i := g; i < len(w.ops); i += clients {
				o := w.ops[i]
				if o.put {
					r := putRecord(u, w.seed, i)
					t0 := time.Now()
					err := s.put(ctx, g, r)
					d := time.Since(t0)
					if err != nil {
						p.fail(fmt.Errorf("op %d: put: %w", i, err))
						continue
					}
					p.putLat = append(p.putLat, d.Nanoseconds())
					p.acked.add(r.Point[0], r.Point[1], r.Payload)
					continue
				}
				t0 := time.Now()
				a, err := s.query(ctx, g, w.boxes[o.box], nil)
				d := time.Since(t0)
				want := int(w.want[o.box].count)
				switch {
				case err != nil:
					p.fail(fmt.Errorf("op %d: %w", i, err))
				case !a.complete:
					p.fail(fmt.Errorf("op %d: incomplete answer", i))
				case a.records != want && !(w.atLeast && a.records > want):
					p.fail(fmt.Errorf("op %d: %d records, oracle %d", i, a.records, want))
				default:
					p.lat = append(p.lat, d.Nanoseconds())
					p.ttfb = append(p.ttfb, a.first.Sub(t0).Nanoseconds())
					p.records += int64(a.records)
				}
			}
		}()
	}
	wg.Wait()
	total := passStats{wall: time.Since(start)}
	for i := range per {
		p := &per[i]
		total.lat = append(total.lat, p.lat...)
		total.ttfb = append(total.ttfb, p.ttfb...)
		total.putLat = append(total.putLat, p.putLat...)
		total.records += p.records
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		total.acked.merge(p.acked)
	}
	return total
}

// quantileUS is the exact nearest-rank q-quantile of ns samples, in µs.
// It sorts v.
func quantileUS(v []int64, q float64) float64 {
	slices.Sort(v)
	rank := int(math.Ceil(q * float64(len(v))))
	return float64(v[max(rank, 1)-1]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS clears the kernel's resident-set high-water mark so that
// peak_rss_mb covers the timed pass and not set-up's garbage. Best effort:
// where the write is refused the mark keeps the whole run's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM. Where there is no /proc/self/status to read it
// from, there is no peak_rss_mb: ok is false and the metric is left out.
func peakRSSMiB() (mib float64, ok bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return float64(kb) / 1024, err == nil
			}
		}
	}
	return 0, false
}
