// Package server is the network boundary of the repository: one request
// pipeline (pipeline.go) in front of a Backend (backend.go) — the sharded
// query service for sfcserved, the cluster router for sfcrouter — reachable
// through two codecs, HTTP/JSON (jsoncodec.go) and the binary wire protocol
// (wirecodec.go).
//
// The paper's thesis is that a space filling curve makes proximate
// multidimensional data cheap to serve from a one-dimensional index; this
// package is where that claim becomes operational. The serving concerns
// live here, once, for every operation, door and backend:
//
//   - Deadline propagation. A request's context — canceled when the client
//     disconnects, expired when its requested timeout (clamped to the
//     server's default and cap) elapses — flows into the context-first scan
//     and write paths, so an abandoned query stops within one page fetch.
//   - Admission control. A bounded inflight semaphore plus a queue-wait
//     budget shed excess load with 429 + Retry-After instead of letting
//     latency collapse for everyone; shed, inflight, queueing and latency
//     are recorded in the same metrics registry the service reports into.
//   - Failure classes. One table maps (operation, error) to what each door
//     says — status code or wire.Code*, Retry-After or not — and which
//     server.* counter moves.
//   - Graceful drain. Drain stops accepting work, finishes inflight
//     requests up to a deadline, then closes the backend — SIGTERM during
//     traffic loses nothing.
//   - Observability. /metrics (text and JSON), /healthz, /readyz, and
//     optionally the net/http/pprof handlers via internal/profiling.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/service"
)

// Config defaults.
const (
	// DefaultQueueWait is the default time a request may wait for an
	// inflight slot before being shed.
	DefaultQueueWait = 100 * time.Millisecond
	// DefaultMaxTimeout caps the per-request ?timeout parameter so a client
	// cannot pin a slot arbitrarily long.
	DefaultMaxTimeout = 30 * time.Second
)

// Server puts a Backend behind an HTTP mux and, optionally, binary wire
// listeners. Build one with New (a service) or NewBackend, expose Handler
// to a test server, or Serve a listener directly; Drain performs the
// graceful shutdown sequence.
type Server struct {
	b   Backend
	reg *metrics.Registry
	lim *limiter

	defaultTimeout time.Duration
	maxTimeout     time.Duration
	retryAfterSec  int

	draining atomic.Bool
	mux      *http.ServeMux
	http     *http.Server

	// Binary wire listener state (wirecodec.go).
	wireMu        sync.Mutex
	wireListeners []net.Listener
	wireConns     map[net.Conn]struct{}
	wireConnWG    sync.WaitGroup // connection read loops
	wireReqWG     sync.WaitGroup // in-flight wire requests
	wireAdvert    atomic.Value   // string: addr published via /wireinfo

	reqTotal   *metrics.Counter
	reqOK      *metrics.Counter
	failed     [numFailClasses]*metrics.Counter // by failure class
	inflight   *metrics.Counter
	latency    *metrics.Histogram
	queueWaitH *metrics.Histogram
}

// buildConfig is the resolved New configuration.
type buildConfig struct {
	maxInflight    int
	queueWait      time.Duration
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	pprof          bool
}

// Option configures New.
type Option interface {
	apply(*buildConfig) error
}

type optionFunc func(*buildConfig) error

func (f optionFunc) apply(b *buildConfig) error { return f(b) }

// WithMaxInflight bounds the number of requests executing concurrently
// (default 4×GOMAXPROCS). Requests beyond the bound queue up to the
// queue-wait budget, then shed with 429.
func WithMaxInflight(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 1 {
			return fmt.Errorf("server: max inflight %d < 1", n)
		}
		b.maxInflight = n
		return nil
	})
}

// WithQueueWait sets the admission queue-wait budget (default
// DefaultQueueWait; 0 sheds immediately when saturated).
func WithQueueWait(d time.Duration) Option {
	return optionFunc(func(b *buildConfig) error {
		if d < 0 {
			return fmt.Errorf("server: negative queue wait %v", d)
		}
		b.queueWait = d
		return nil
	})
}

// WithDefaultTimeout sets the deadline applied to requests that ask for
// none (default: none — only client disconnect cancels).
func WithDefaultTimeout(d time.Duration) Option {
	return optionFunc(func(b *buildConfig) error {
		if d < 0 {
			return fmt.Errorf("server: negative default timeout %v", d)
		}
		b.defaultTimeout = d
		return nil
	})
}

// WithMaxTimeout caps the deadline a request may ask for (default
// DefaultMaxTimeout).
func WithMaxTimeout(d time.Duration) Option {
	return optionFunc(func(b *buildConfig) error {
		if d <= 0 {
			return fmt.Errorf("server: max timeout %v <= 0", d)
		}
		b.maxTimeout = d
		return nil
	})
}

// WithPprof attaches the net/http/pprof handlers under /debug/pprof/.
func WithPprof() Option {
	return optionFunc(func(b *buildConfig) error {
		b.pprof = true
		return nil
	})
}

// New builds a Server over svc. The server records into svc's metrics
// registry, so /metrics exposes the service- and server-side series
// together.
func New(svc *service.Service, opts ...Option) (*Server, error) {
	return NewBackend(serviceBackend{svc}, opts...)
}

// NewBackend builds a Server over any Backend; Drain closes it.
func NewBackend(b Backend, opts ...Option) (*Server, error) {
	cfg := buildConfig{
		maxInflight: 4 * runtime.GOMAXPROCS(0),
		queueWait:   DefaultQueueWait,
		maxTimeout:  DefaultMaxTimeout,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt.apply(&cfg); err != nil {
			return nil, err
		}
	}
	reg := b.Metrics()
	s := &Server{
		b:              b,
		reg:            reg,
		lim:            newLimiter(cfg.maxInflight, cfg.queueWait),
		defaultTimeout: cfg.defaultTimeout,
		maxTimeout:     cfg.maxTimeout,
		retryAfterSec:  retryAfterSeconds(cfg.queueWait),
		mux:            http.NewServeMux(),

		reqTotal:   reg.Counter("server.requests"),
		reqOK:      reg.Counter("server.ok"),
		inflight:   reg.Counter("server.inflight"),
		latency:    reg.Histogram("server.latency_us"),
		queueWaitH: reg.Histogram("server.queue_wait_us"),
	}
	for c, f := range failures {
		s.failed[c] = reg.Counter(f.counter)
	}
	s.mux.HandleFunc("/query", s.handleJSON(opQuery))
	s.mux.HandleFunc("/scan", s.handleJSON(opScan))
	s.mux.HandleFunc("/digest", s.handleJSON(opDigest))
	s.mux.HandleFunc("/put", s.handleJSON(opPut))
	s.mux.HandleFunc("/delete", s.handleJSON(opDelete))
	s.mux.HandleFunc("/flush", s.handleJSON(opFlush))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/wireinfo", s.handleWireInfo)
	if cfg.pprof {
		profiling.AttachPprof(s.mux)
	}
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// retryAfterSeconds renders the queue-wait budget as a whole-second
// Retry-After hint (minimum 1 — the header has no sub-second form).
func retryAfterSeconds(queueWait time.Duration) int {
	sec := int((queueWait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Handler returns the server's mux — the hook httptest-based tests serve.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle registers an extra endpoint beside the server's own — sfcrouter's
// /topology. Call it before Serve.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Serve accepts connections on l until Drain (or Close) is called. A clean
// drain returns nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Run is a daemon's serving lifecycle: serve HTTP on l and, when wl is
// non-nil, the binary protocol on wl (advertised through /wireinfo) until
// ctx is canceled — the SIGTERM path — then drain for up to drainTimeout.
// logf narrates the shutdown. A clean drain returns nil.
func (s *Server) Run(ctx context.Context, l, wl net.Listener, drainTimeout time.Duration, logf func(format string, args ...any)) error {
	serveErr := make(chan error, 1)
	if wl != nil {
		s.AdvertiseWire(wl.Addr().String())
		go func() {
			if err := s.ServeWire(wl); err != nil {
				serveErr <- fmt.Errorf("wire: %w", err)
			}
		}()
	}
	go func() { serveErr <- s.Serve(l) }()
	select {
	case err := <-serveErr:
		// A listener died without a signal; Drain still closes the backend.
		s.Drain(context.Background())
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	logf("signal received, draining (up to %v)", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logf("drained cleanly")
	return nil
}

// Drain performs the graceful shutdown sequence across both front doors:
// flip /readyz to 503 and reject new queries (load balancers steer away),
// stop accepting HTTP and wire connections, wait for inflight requests up
// to ctx's deadline, then close the backend. If ctx expires
// first, remaining connections are force-closed and the context's error is
// returned — inflight queries at that point die with the socket.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.wireMu.Lock()
	for _, l := range s.wireListeners {
		l.Close()
	}
	s.wireMu.Unlock()
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still inflight: force the sockets.
		s.http.Close()
	}
	// Wait out in-flight wire requests; their trailers are the commit
	// point pipelined clients depend on.
	done := make(chan struct{})
	go func() {
		s.wireReqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	// Idle (or stuck, if ctx expired) wire connections block in ReadFrame;
	// closing the sockets releases their read loops.
	s.wireMu.Lock()
	for c := range s.wireConns {
		c.Close()
	}
	s.wireMu.Unlock()
	s.wireConnWG.Wait()
	if cerr := s.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleMetrics serves the registry: aligned text by default,
// ?format=json (or Accept: application/json) for the machine-readable
// form with globally sorted keys.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, s.reg.JSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Report())
}

// handleHealthz reports process liveness: 200 as long as the daemon runs,
// draining included.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness to take traffic: 503 once draining so load
// balancers stop routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
