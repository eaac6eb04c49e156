// Package service is the concurrent query-serving layer over the paged
// store: it shards a record set across P stores by contiguous curve-index
// segments (the cuts of internal/partition), routes each box query to
// exactly the shards whose segment intersects the query's curve
// decomposition, and runs the per-shard scans on a bounded worker pool.
//
// The decomposition — the expensive, curve-dependent part of a query — is
// computed once per distinct box and shared three ways: across the shards of
// one query (each shard scans a clipped view of the same interval list),
// across concurrent identical queries (singleflight coalescing), and across
// repeated queries (a size-bounded LRU). Everything is context-first:
// cancellation and deadlines are honored between page reads inside each
// shard, and a canceled query returns the context's error rather than a
// fabricated partial result.
//
// Because shard segments are contiguous and ascending in curve order and
// each shard returns records in curve order, concatenating per-shard
// results in shard order reproduces the single-store scan order exactly —
// the property test in service_test.go proves this, dark intervals
// included.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/curve"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/store"
)

// ErrShuttingDown is returned (wrapped) by queries submitted after Close.
var ErrShuttingDown = errors.New("service: shutting down")

// Service serves box queries over a sharded store. Methods are safe for
// concurrent use; Close drains the worker pool.
type Service struct {
	c        curve.Curve
	pt       *partition.Partition
	scanners []shardScanner
	stores   []*store.Store   // per-shard bulkloaded stores; nil in durable mode
	durables []*store.Durable // per-shard durable stores; nil in in-memory mode
	cache    *decompCache
	reg      *metrics.Registry

	mu     sync.RWMutex // guards closed and the right to send on tasks
	closed bool
	tasks  chan func()
	wg     sync.WaitGroup

	qTotal    *metrics.Counter
	qDegraded *metrics.Counter
	qErrors   *metrics.Counter
	writes    *metrics.Counter
	pagesRead *metrics.Counter
	shardLat  []*metrics.Histogram
}

// Result is the outcome of one sharded query, mirroring store.ScanResult:
// the readable records in curve order plus the merged dark curve intervals
// from every shard.
type Result struct {
	// Records holds the readable records inside the box, in curve order —
	// identical to what a single unsharded store would return.
	Records []store.Record
	// Unavailable lists the curve intervals no shard could serve: sorted,
	// disjoint, merged across shards.
	Unavailable []query.Interval
	// ShardsQueried counts the shards whose segment intersected the
	// query's decomposition.
	ShardsQueried int
	// PagesRead counts distinct leaf pages touched across shards, dark
	// pages included — the per-query clustering cost.
	PagesRead int64
}

// Complete reports whether the whole query was served.
func (r Result) Complete() bool { return len(r.Unavailable) == 0 }

// New shards recs across the configured number of stores by uniform
// curve-index cuts and starts the worker pool. The input records are not
// retained. Configuration is by functional options mirroring the store's
// (WithShards, WithWorkers, WithCacheSize, WithPageSize, WithMetrics,
// WithShardStoreOptions).
func New(c curve.Curve, recs []store.Record, opts ...Option) (*Service, error) {
	var cfg buildConfig
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt.apply(&cfg); err != nil {
			return nil, err
		}
	}
	shards := cfg.shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 {
		return nil, fmt.Errorf("service: %d shards", shards)
	}
	workers := cfg.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return nil, fmt.Errorf("service: %d workers", workers)
	}
	pt, err := partition.Uniform(c, shards)
	if err != nil {
		return nil, fmt.Errorf("service: partitioning: %w", err)
	}
	reg := cfg.registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Service{
		c:         c,
		pt:        pt,
		scanners:  make([]shardScanner, shards),
		reg:       reg,
		tasks:     make(chan func(), 2*workers),
		qTotal:    reg.Counter("queries.total"),
		qDegraded: reg.Counter("queries.degraded"),
		qErrors:   reg.Counter("queries.errors"),
		writes:    reg.Counter("writes.total"),
		pagesRead: reg.Counter("pages.leaf_read"),
		shardLat:  make([]*metrics.Histogram, shards),
	}
	for j := range s.shardLat {
		s.shardLat[j] = reg.Histogram(fmt.Sprintf("shard.%d.latency_us", j))
	}
	if cfg.durableDir != "" {
		if err := s.openDurableShards(cfg.durableDir, recs, &cfg); err != nil {
			return nil, err
		}
	} else {
		// Deal records to their owning shard; Bulkload sorts each shard's
		// deal by curve key, and the segments are ascending, so the
		// concatenation of shard contents is the globally sorted record set.
		dealt := make([][]store.Record, shards)
		for _, r := range recs {
			j := pt.OwnerOfPosition(c.Index(r.Point))
			dealt[j] = append(dealt[j], r)
		}
		s.stores = make([]*store.Store, shards)
		for j := range s.stores {
			sOpts := []store.Option{}
			if cfg.pageSize != 0 {
				sOpts = append(sOpts, store.WithPageSize(cfg.pageSize))
			}
			if cfg.shardOpts != nil {
				sOpts = append(sOpts, cfg.shardOpts(j)...)
			}
			st, err := store.Bulkload(c, dealt[j], sOpts...)
			if err != nil {
				return nil, fmt.Errorf("service: shard %d: %w", j, err)
			}
			s.stores[j] = st
			s.scanners[j] = st
		}
	}
	capacity := cfg.cacheSize
	switch {
	case capacity == 0:
		capacity = DefaultCacheSize
	case capacity < 0:
		capacity = 0
	}
	s.cache = newDecompCache(capacity, func(b query.Box) []query.Interval {
		return query.DecomposeBox(c, b)
	}, reg)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for t := range s.tasks {
				t()
			}
		}()
	}
	return s, nil
}

// Curve returns the service's curve.
func (s *Service) Curve() curve.Curve { return s.c }

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.scanners) }

// Shard returns shard j's bulkloaded store, e.g. to inject device faults in
// tests, or nil when the service is durable (use Durable instead).
func (s *Service) Shard(j int) *store.Store {
	if s.stores == nil {
		return nil
	}
	return s.stores[j]
}

// Partition returns the curve-index partition that defines shard ownership.
func (s *Service) Partition() *partition.Partition { return s.pt }

// Metrics returns the service's metric registry.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Range answers the box query, fanning out to every shard whose curve
// segment intersects the query's decomposition and merging the results in
// curve order. Pages that stay unreadable degrade the result (dark
// intervals in Result.Unavailable) rather than failing it; a canceled or
// expired context fails the query with the context's error.
func (s *Service) Range(ctx context.Context, b query.Box) (Result, error) {
	return s.scanIntervals(ctx, s.cache.get(b))
}

// Scan answers a raw interval scan: the given sorted, disjoint curve
// intervals are clipped to each shard's segment and scanned exactly like a
// decomposed box query. It is the in-process face of the daemon's /scan
// endpoint, which the cluster router uses to query a node for the clipped
// curve ranges it owns instead of re-decomposing the box on every node.
func (s *Service) Scan(ctx context.Context, ivs []query.Interval) (Result, error) {
	if err := ValidateIntervals(ivs, s.c.Universe().N()); err != nil {
		return Result{}, fmt.Errorf("service: scan: %w", err)
	}
	return s.scanIntervals(ctx, ivs)
}

// ValidateIntervals checks that ivs is a canonical scan argument: every
// interval non-empty, within [0, n), sorted ascending and disjoint. The
// scan path's degraded tiling guarantees are stated over exactly this form.
func ValidateIntervals(ivs []query.Interval, n uint64) error {
	if len(ivs) == 0 {
		return errors.New("no intervals")
	}
	prev := uint64(0)
	for i, iv := range ivs {
		if iv.Lo >= iv.Hi {
			return fmt.Errorf("interval %d [%d, %d) is empty or inverted", i, iv.Lo, iv.Hi)
		}
		if iv.Hi > n {
			return fmt.Errorf("interval %d [%d, %d) exceeds the index space [0, %d)", i, iv.Lo, iv.Hi, n)
		}
		if i > 0 && iv.Lo < prev {
			return fmt.Errorf("interval %d [%d, %d) overlaps or precedes its predecessor", i, iv.Lo, iv.Hi)
		}
		prev = iv.Hi
	}
	return nil
}

// scanIntervals is the shared core of Range and Scan: a Collect over the
// streaming pipeline, so the buffered and streaming entry points cannot
// diverge — the differential property test in stream_test.go pins the
// equivalence under fault injection.
func (s *Service) scanIntervals(ctx context.Context, ivs []query.Interval) (Result, error) {
	st, err := s.openStream(ctx, ivs)
	if err != nil {
		return Result{}, err
	}
	defer st.Close()
	return st.Collect()
}

// CacheLen returns the number of retained decompositions.
func (s *Service) CacheLen() int { return s.cache.len() }

// Close stops the worker pool and waits for in-flight shard scans to
// finish. Queries submitted after Close fail with ErrShuttingDown. Close is
// idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.tasks)
	s.mu.Unlock()
	s.wg.Wait()
	var err error
	for _, d := range s.durables {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
