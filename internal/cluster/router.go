package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// Node is the router's handle on one cluster member: an interval scan with
// a per-request deadline, a readiness probe, the durable write operations,
// and the anti-entropy range digest. Over the wire it is a ClientNode;
// tests substitute in-process fakes.
type Node interface {
	Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (store.ScanResult, error)
	Ready(ctx context.Context) bool
	// Put durably inserts rec on the member; nil means the member's WAL
	// holds the write.
	Put(ctx context.Context, rec store.Record, timeout time.Duration) error
	// Delete durably removes every stored instance equal to rec.
	Delete(ctx context.Context, rec store.Record, timeout time.Duration) error
	// Flush persists the member's memtables to on-disk runs.
	Flush(ctx context.Context, timeout time.Duration) error
	// Digest summarizes the records the member holds in ivs for
	// anti-entropy comparison.
	Digest(ctx context.Context, ivs []query.Interval, timeout time.Duration) (service.RangeDigest, error)
}

// Result is the outcome of one routed query, mirroring service.Result
// across the cluster: records in curve order plus the exact curve intervals
// no live replica could serve.
type Result struct {
	// Records holds the served records in curve order — the live-tiled
	// subset of what a single store holding everything would return.
	Records []store.Record
	// Unavailable lists the curve intervals unreachable after replica
	// fallback: sorted, disjoint, merged. An interval lands here only when
	// every replica of its segment failed or was dead, or when every
	// replica's local store reported it dark.
	Unavailable []query.Interval
	// NodesQueried counts the distinct nodes that contributed an answer.
	NodesQueried int
	// PagesRead totals the leaf pages members reported touching on behalf
	// of this query, hedged losers excluded.
	PagesRead int64
	// Hedges counts attempts launched by the hedge timer, and Failovers
	// attempts launched because an earlier replica failed.
	Hedges, Failovers int
}

// Complete reports whether the whole query was served.
func (r Result) Complete() bool { return len(r.Unavailable) == 0 }

// Router fans box queries out over the cluster: decompose once, clip the
// intervals to each topology segment, scatter each segment's share to a
// live replica (hedging to further replicas on slowness, failing over on
// errors), and merge per-segment results in curve order. Node failures
// surface as exact dark intervals, never as silently missing records, and
// every detected death updates the FailParts ownership ledger.
//
// Methods are safe for concurrent use.
type Router struct {
	topo  *Topology
	nodes []Node

	mu      sync.Mutex // guards view, nodes, and missedW
	view    *View
	missedW []int64 // per-node writes acked without that replica

	nodeTimeout time.Duration
	hedgeDelay  time.Duration
	writeQuorum int // 0 = read-only router

	reg        *metrics.Registry
	qTotal     *metrics.Counter
	qDegraded  *metrics.Counter
	hedges     *metrics.Counter
	failovers  *metrics.Counter
	deaths     *metrics.Counter
	revivals   *metrics.Counter
	darkIvs    *metrics.Counter
	nodeErrors *metrics.Counter
	wTotal     *metrics.Counter
	wDegraded  *metrics.Counter
	wMisses    *metrics.Counter
	aeRepairs  *metrics.Counter
}

// RouterOption configures NewRouter.
type RouterOption func(*Router)

// WithNodeTimeout sets the per-node request deadline (default 2s).
func WithNodeTimeout(d time.Duration) RouterOption {
	return func(rt *Router) { rt.nodeTimeout = d }
}

// WithHedgeDelay sets how long the router waits on a replica before racing
// the next one (default 50ms; 0 disables time-based hedging — replicas are
// then tried only on failure).
func WithHedgeDelay(d time.Duration) RouterOption {
	return func(rt *Router) { rt.hedgeDelay = d }
}

// WithRouterMetrics records into reg instead of a fresh registry.
func WithRouterMetrics(reg *metrics.Registry) RouterOption {
	return func(rt *Router) { rt.reg = reg }
}

// WithWriteQuorum makes the router writable: a routed Put or Delete fans out
// to every live replica of the owning segment and is acknowledged once w
// replicas have durably applied it. w must satisfy 1 ≤ w ≤ R. The default, 0,
// leaves the router read-only — Put, Delete and Flush refuse with
// ErrRouterReadOnly and the read path behaves exactly as before (in
// particular, Probe revives ready nodes without anti-entropy catch-up, since
// a read-only cluster's members can never diverge).
func WithWriteQuorum(w int) RouterOption {
	return func(rt *Router) { rt.writeQuorum = w }
}

// NewRouter builds a router over the topology's nodes; nodes[i] must be the
// member holding node index i's ranges.
func NewRouter(topo *Topology, nodes []Node, opts ...RouterOption) (*Router, error) {
	if len(nodes) != topo.Nodes() {
		return nil, fmt.Errorf("cluster: %d node handles for a %d-node topology", len(nodes), topo.Nodes())
	}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("cluster: node handle %d is nil", i)
		}
	}
	rt := &Router{
		topo:        topo,
		nodes:       append([]Node(nil), nodes...),
		view:        NewView(topo),
		nodeTimeout: 2 * time.Second,
		hedgeDelay:  50 * time.Millisecond,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(rt)
		}
	}
	if rt.nodeTimeout <= 0 {
		return nil, fmt.Errorf("cluster: node timeout %v <= 0", rt.nodeTimeout)
	}
	if rt.hedgeDelay < 0 {
		return nil, fmt.Errorf("cluster: negative hedge delay %v", rt.hedgeDelay)
	}
	if rt.writeQuorum < 0 || rt.writeQuorum > topo.Replicas() {
		return nil, fmt.Errorf("cluster: write quorum %d outside [0, %d replicas]", rt.writeQuorum, topo.Replicas())
	}
	rt.missedW = make([]int64, topo.Nodes())
	if rt.reg == nil {
		rt.reg = metrics.NewRegistry()
	}
	rt.qTotal = rt.reg.Counter("router.queries")
	rt.qDegraded = rt.reg.Counter("router.degraded")
	rt.hedges = rt.reg.Counter("router.hedges")
	rt.failovers = rt.reg.Counter("router.failovers")
	rt.deaths = rt.reg.Counter("router.node_deaths")
	rt.revivals = rt.reg.Counter("router.node_revivals")
	rt.darkIvs = rt.reg.Counter("router.dark_intervals")
	rt.nodeErrors = rt.reg.Counter("router.node_errors")
	rt.wTotal = rt.reg.Counter("router.writes")
	rt.wDegraded = rt.reg.Counter("router.writes_degraded")
	rt.wMisses = rt.reg.Counter("router.write_misses")
	rt.aeRepairs = rt.reg.Counter("router.antientropy_repairs")
	return rt, nil
}

// Topology returns the router's placement plan.
func (rt *Router) Topology() *Topology { return rt.topo }

// Metrics returns the router's metric registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Query answers the box query: decompose on the router once, then scatter
// the clipped intervals across the cluster.
func (rt *Router) Query(ctx context.Context, b query.Box) (Result, error) {
	return rt.Scan(ctx, query.DecomposeBox(rt.topo.Curve(), b))
}

// Scan answers a raw interval scan across the cluster: a Collect over the
// streaming scatter, so the buffered and streaming entry points cannot
// diverge. Intervals must be sorted, disjoint, and within the curve's
// index space.
func (rt *Router) Scan(ctx context.Context, ivs []query.Interval) (Result, error) {
	st, err := rt.ScanStream(ctx, ivs)
	if err != nil {
		return Result{}, err
	}
	return st.Collect()
}

// Stream is an incremental view of one routed scan: each segment's records
// arrive as one batch, in segment (hence global curve) order, as soon as
// that segment's replica chain finishes — the first segment's records reach
// the consumer while later segments are still being raced across replicas.
// The trailer commits the merged dark tiling once every segment is in.
type Stream struct {
	rt    *Router
	ctx   context.Context
	chans []chan segResult

	cur       int
	dark      []query.Interval
	nodesSeen map[int]bool

	trailer Result
	eof     bool
	err     error
}

// ScanStream opens the streaming form of Scan. The returned stream must be
// drained (Next until io.EOF or error); segment goroutines buffer their one
// result, so an abandoned stream does not leak them, but Close exists for
// symmetry and early interest loss.
func (rt *Router) ScanStream(ctx context.Context, ivs []query.Interval) (*Stream, error) {
	if err := service.ValidateIntervals(ivs, rt.topo.Curve().Universe().N()); err != nil {
		return nil, fmt.Errorf("cluster: scan: %w", err)
	}
	rt.qTotal.Inc()

	type job struct {
		seg int
		ivs []query.Interval
	}
	var jobs []job
	for j := 0; j < rt.topo.Nodes(); j++ {
		lo, hi := rt.topo.Segment(j)
		clipped := query.ClipIntervals(ivs, lo, hi)
		if len(clipped) == 0 {
			continue
		}
		jobs = append(jobs, job{seg: j, ivs: clipped})
	}
	st := &Stream{
		rt:        rt,
		ctx:       ctx,
		chans:     make([]chan segResult, len(jobs)),
		nodesSeen: map[int]bool{},
	}
	for i, jb := range jobs {
		ch := make(chan segResult, 1) // buffered: the goroutine never blocks on an abandoned stream
		st.chans[i] = ch
		jb := jb
		go func() {
			ch <- rt.scanSegment(ctx, jb.seg, jb.ivs)
		}()
	}
	return st, nil
}

// Next returns the next segment's records (possibly empty), or io.EOF once
// every segment has reported — the trailer is then available. Segments
// ascend in curve space and each segment's records ascend in curve key, so
// batches concatenate in global curve order. A context that ended before
// the scatter completed surfaces as its error, exactly like the buffered
// Scan.
func (st *Stream) Next() ([]store.Record, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.eof {
		return nil, io.EOF
	}
	for st.cur < len(st.chans) {
		sr := <-st.chans[st.cur]
		st.cur++
		st.dark = append(st.dark, sr.dark...)
		st.trailer.PagesRead += sr.pages
		st.trailer.Hedges += sr.hedges
		st.trailer.Failovers += sr.failovers
		for _, n := range sr.servedBy {
			st.nodesSeen[n] = true
		}
		if len(sr.records) > 0 {
			return sr.records, nil
		}
	}
	if err := st.ctx.Err(); err != nil {
		st.err = err
		return nil, err
	}
	st.eof = true
	st.trailer.NodesQueried = len(st.nodesSeen)
	st.trailer.Unavailable = query.MergeIntervals(st.dark)
	if !st.trailer.Complete() {
		st.rt.qDegraded.Inc()
		st.rt.darkIvs.Add(int64(len(st.trailer.Unavailable)))
	}
	return nil, io.EOF
}

// Trailer returns the end-of-scan summary; valid only after Next has
// returned io.EOF.
func (st *Stream) Trailer() Result { return st.trailer }

// Close abandons the stream. In-flight segment goroutines park their result
// in their buffered channel and exit; nothing leaks.
func (st *Stream) Close() {
	if !st.eof && st.err == nil {
		st.err = io.ErrClosedPipe
	}
}

// Collect drains the stream into the buffered Result shape.
func (st *Stream) Collect() (Result, error) {
	var recs []store.Record
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
		recs = append(recs, b...)
	}
	res := st.Trailer()
	res.Records = recs
	return res, nil
}

// segResult is one segment's share of a scatter.
type segResult struct {
	records   []store.Record
	dark      []query.Interval
	servedBy  []int
	pages     int64
	hedges    int
	failovers int
}

// scanSegment serves one segment's clipped intervals, falling through the
// replica chain: the preferred replica answers; any intervals its local
// store reported dark are re-asked of the remaining replicas (replica
// fallback for partial failures); intervals still unserved when the chain
// is exhausted are dark for this query.
func (rt *Router) scanSegment(ctx context.Context, seg int, ivs []query.Interval) segResult {
	var sr segResult
	want := ivs
	tried := map[int]bool{}
	sources := 0
	for len(want) > 0 {
		prefs := rt.liveReplicasExcluding(seg, tried)
		if len(prefs) == 0 {
			sr.dark = append(sr.dark, want...)
			break
		}
		res, winner, hedges, failovers, err := rt.race(ctx, prefs, want)
		sr.hedges += hedges
		sr.failovers += failovers
		if err != nil {
			// Every replica in the chain failed (or the caller's context
			// ended): the remainder is unreachable for this query.
			sr.dark = append(sr.dark, want...)
			break
		}
		tried[winner] = true
		sr.servedBy = append(sr.servedBy, winner)
		sr.records = append(sr.records, res.Records...)
		sr.pages += int64(res.PagesRead)
		sources++
		// The winner's own dark intervals go back through the chain: a
		// replica may hold the pages this one lost.
		want = res.Unavailable
	}
	if sources > 1 {
		// Records were spliced from multiple replicas over disjoint
		// intervals; restore curve order.
		c := rt.topo.Curve()
		sort.SliceStable(sr.records, func(i, j int) bool {
			return c.Index(sr.records[i].Point) < c.Index(sr.records[j].Point)
		})
	}
	return sr
}

// liveReplicasExcluding snapshots the preference-ordered live replicas of
// seg, minus nodes already consulted for this segment scan.
func (rt *Router) liveReplicasExcluding(seg int, tried map[int]bool) []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	all := rt.view.LiveReplicas(seg)
	out := all[:0]
	for _, n := range all {
		if !tried[n] {
			out = append(out, n)
		}
	}
	return out
}

// race runs the hedged attempt chain over prefs: the first replica is asked
// immediately, the next joins after the hedge delay without an answer or at
// once on a failure, and the first success wins. A replica whose attempt
// genuinely failed — any error not attributable to the race being canceled
// from outside — is marked dead (and failed over); losers reaped because
// somebody else won report a cancellation and are not, so a slow but
// healthy node keeps its ownership.
func (rt *Router) race(ctx context.Context, prefs []int, ivs []query.Interval) (store.ScanResult, int, int, int, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		node int
		res  store.ScanResult
		err  error
	}
	resc := make(chan attempt, len(prefs))
	launched := 0
	launch := func() {
		node := prefs[launched]
		launched++
		go func() {
			actx, acancel := context.WithTimeout(rctx, rt.nodeTimeout)
			defer acancel()
			res, err := rt.nodeHandle(node).Scan(actx, ivs, rt.nodeTimeout)
			if err != nil && ctx.Err() == nil && !errors.Is(err, context.Canceled) {
				rt.nodeErrors.Inc()
				rt.MarkDead(node)
			}
			resc <- attempt{node: node, res: res, err: err}
		}()
	}
	launch()
	pending := 1
	hedges, failovers := 0, 0

	var timer *time.Timer
	var hedgeC <-chan time.Time
	armHedge := func() {
		if timer != nil {
			timer.Stop()
		}
		timer, hedgeC = nil, nil
		if rt.hedgeDelay > 0 && launched < len(prefs) {
			timer = time.NewTimer(rt.hedgeDelay)
			hedgeC = timer.C
		}
	}
	armHedge()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	var lastErr error
	for {
		select {
		case a := <-resc:
			pending--
			if a.err == nil {
				return a.res, a.node, hedges, failovers, nil
			}
			lastErr = a.err
			if err := ctx.Err(); err != nil {
				return store.ScanResult{}, -1, hedges, failovers, err
			}
			if launched < len(prefs) {
				failovers++
				rt.failovers.Inc()
				launch()
				pending++
				armHedge()
			} else if pending == 0 {
				return store.ScanResult{}, -1, hedges, failovers,
					fmt.Errorf("cluster: all %d replicas failed: %w", len(prefs), lastErr)
			}
		case <-hedgeC:
			hedges++
			rt.hedges.Inc()
			launch()
			pending++
			armHedge()
		case <-ctx.Done():
			return store.ScanResult{}, -1, hedges, failovers, ctx.Err()
		}
	}
}

// nodeHandle snapshots the current handle for node i (SetNode may swap it).
func (rt *Router) nodeHandle(i int) Node {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.nodes[i]
}

// MarkDead records node i as dead and fails its ownership over to the
// survivors. Idempotent.
func (rt *Router) MarkDead(i int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.view.Alive(i) {
		return nil
	}
	rt.deaths.Inc()
	return rt.view.Kill(i)
}

// Revive records node i as live again, rebuilding the ownership ledger.
// Idempotent.
func (rt *Router) Revive(i int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.view.Alive(i) {
		return nil
	}
	rt.revivals.Inc()
	return rt.view.Revive(i)
}

// SetNode swaps node i's handle — a restarted member typically comes back
// on a new address — without touching liveness; pair with Revive (or let
// Probe rediscover it).
func (rt *Router) SetNode(i int, n Node) error {
	if n == nil {
		return fmt.Errorf("cluster: nil node handle")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if i < 0 || i >= len(rt.nodes) {
		return fmt.Errorf("cluster: node %d outside [0, %d)", i, len(rt.nodes))
	}
	rt.nodes[i] = n
	return nil
}

// Probe asks every dead node whether it is ready again and revives the ones
// that answer. On a writable router (write quorum ≥ 1) a ready node must
// first pass anti-entropy catch-up — its held ranges are reconciled against
// the live replicas so writes it missed while dead are replayed onto it —
// before it re-enters the read path; a node whose catch-up fails stays dead
// until the next probe. Returns the nodes revived.
func (rt *Router) Probe(ctx context.Context) []int {
	rt.mu.Lock()
	var deadNodes []int
	for i := 0; i < rt.topo.Nodes(); i++ {
		if !rt.view.Alive(i) {
			deadNodes = append(deadNodes, i)
		}
	}
	handles := make([]Node, len(deadNodes))
	for i, n := range deadNodes {
		handles[i] = rt.nodes[n]
	}
	rt.mu.Unlock()

	var revived []int
	for i, n := range deadNodes {
		if !handles[i].Ready(ctx) {
			continue
		}
		if rt.writeQuorum >= 1 {
			if _, err := rt.CatchUp(ctx, n); err != nil {
				continue // still divergent: stays dead, retried next probe
			}
		}
		if err := rt.Revive(n); err == nil {
			revived = append(revived, n)
		}
	}
	return revived
}

// Alive reports whether node i is currently believed live.
func (rt *Router) Alive(i int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.view.Alive(i)
}

// Conserved checks the ownership ledger's tiling invariant.
func (rt *Router) Conserved() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.view.Conserved()
}

// NodeStatus is one node's row in a topology snapshot.
type NodeStatus struct {
	Node     int              `json:"node"`
	Alive    bool             `json:"alive"`
	Owns     query.Interval   `json:"owns"`     // current (failed-over) ownership
	Home     query.Interval   `json:"home"`     // base segment
	Replicas []int            `json:"replicas"` // replica set of the home segment
	Held     []query.Interval `json:"held"`     // ranges stored on the node
	// MissedWrites counts routed writes acknowledged without this replica
	// (it was dead or its leg failed); anti-entropy catch-up zeroes it.
	MissedWrites int64 `json:"missed_writes,omitempty"`
}

// Snapshot returns the per-node topology view the /topology endpoint and
// the chaos campaign inspect.
func (rt *Router) Snapshot() []NodeStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]NodeStatus, rt.topo.Nodes())
	for j := range out {
		hlo, hhi := rt.topo.Segment(j)
		st := NodeStatus{
			Node:         j,
			Alive:        rt.view.Alive(j),
			Home:         query.Interval{Lo: hlo, Hi: hhi},
			Replicas:     rt.topo.ReplicaSet(j),
			Held:         rt.topo.HeldRanges(j),
			MissedWrites: rt.missedW[j],
		}
		if cur := rt.view.Current(); cur != nil {
			lo, hi := cur.Segment(j)
			st.Owns = query.Interval{Lo: lo, Hi: hi}
		}
		out[j] = st
	}
	return out
}
