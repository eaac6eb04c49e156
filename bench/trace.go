package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// spanName names the call a span covers. The ladder's rungs, bottom up:
// decompose, store scan, service call, wire codec, client call, router
// call; first_batch and leg are children of the last two.
type spanName uint8

const (
	spanDecompose spanName = iota
	spanStoreScan
	spanServiceRange
	spanServicePut
	spanWireEncode
	spanWireDecode
	spanClientQuery
	spanClientFirstBatch
	spanClientPut
	spanClusterQuery
	spanClusterLeg
	spanNNSweep
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"query.decompose", "store.scan", "service.range", "service.put",
	"wire.encode", "wire.decode", "client.query", "client.first_batch",
	"client.put", "cluster.query", "cluster.leg", "curve.nn_sweep",
}

// span is one timed call: which operation it served, what was called, when
// it started and ended (ns since the trace began), and the span that
// caused it (-1 for a rung's own call).
type span struct {
	op         int32
	name       spanName
	parent     int32
	start, end int64
}

// tracer keeps the spans of a traced run in memory; they are written out
// when the run ends. A nil tracer records nothing, which is how the
// spans-off replay behind trace.overhead_pct runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	total [numSpanNames]time.Duration
	count [numSpanNames]int
}

func (t *tracer) add(op int, name spanName, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		op: int32(op), name: name, parent: int32(parent),
		start: start.Sub(t.t0).Nanoseconds(), end: end.Sub(t.t0).Nanoseconds(),
	})
	t.total[name] += end.Sub(start)
	t.count[name]++
	return len(t.spans) - 1
}

// usPerOp is the mean duration of the named spans in µs.
func (t *tracer) usPerOp(name spanName) float64 {
	return float64(t.total[name].Nanoseconds()) / 1e3 / float64(max(t.count[name], 1))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for id, s := range t.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// legTimer collects the member calls a routed query makes. The router
// runs legs on goroutines of its own, so the decorator only notes each
// leg's times; the traced run turns them into child spans when the query
// returns.
type legTimer struct {
	mu   sync.Mutex
	legs [][2]time.Time
}

func (t *legTimer) take() [][2]time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	legs := t.legs
	t.legs = nil
	return legs
}

// timedNode is the benchmark's decorator around cluster.Node.
type timedNode struct {
	cluster.Node
	t *legTimer
}

func (n *timedNode) Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (store.ScanResult, error) {
	t0 := time.Now()
	res, err := n.Node.Scan(ctx, ivs, timeout)
	t1 := time.Now()
	n.t.mu.Lock()
	n.t.legs = append(n.t.legs, [2]time.Time{t0, t1})
	n.t.mu.Unlock()
	return res, err
}

// traceFraction is the share of the workload's operations the traced run
// replays on each rung.
const traceFraction = 4

// ladder is a traced run in progress.
type ladder struct {
	cfg  config
	ds   *dataset
	ops  []op
	res  *result
	tr   *tracer
	one  *store.Store // the unsharded store of rung 2
	base *session     // one daemon over the data set: rungs 3 to 5
	wal  *walStats
	// putSalt keeps the puts of different replays apart: every put of a
	// run carries a payload of its own.
	putSalt int
	queries int // query operations per replay
	puts    int // put operations per replay
}

// check counts one checked call and records what was wrong with it.
func (l *ladder) check(rung string, i int, err error, records int, complete bool) {
	l.res.Attempted++
	o := l.ops[i]
	want := int(l.ds.work.want[o.box].count)
	switch {
	case err != nil:
	case !complete:
		err = fmt.Errorf("incomplete answer")
	case records != want && !(l.ds.work.atLeast && records > want):
		err = fmt.Errorf("%d records, oracle %d", records, want)
	default:
		return
	}
	l.failed(rung, i, err)
}

// failed counts a failed call; the first few are described.
func (l *ladder) failed(rung string, i int, err error) {
	l.res.Failed++
	l.res.Correct = false
	if len(l.res.Errors) < 8 {
		l.res.wrong("%s: op %d: %v", rung, i, err)
	}
}

// traceWorkload is the traced run: after the same warm-up as the untraced
// run, one client replays the first quarter of the operations once per
// rung, timing the calls into each layer's public functions.
func traceWorkload(spec workloadSpec, cfg config) (*result, error) {
	if spec.front == frontSweep {
		return traceSweep(spec, cfg)
	}
	cfg.clients = 1
	cfg.traceLegs = true
	ws := &walStats{}
	cfg.walWrap = ws.counted
	ops := cfg.opCount(spec)
	ds, err := generate(spec, cfg, ops)
	if err != nil {
		return nil, err
	}
	traced := ds.work.ops[:max(1, ops/traceFraction)]
	l := &ladder{
		cfg: cfg, ds: ds, wal: ws, ops: traced,
		res: newResult(spec, cfg, true, len(traced)),
		tr:  &tracer{t0: time.Now()},
	}
	for _, o := range l.ops {
		if o.put {
			l.puts++
		} else {
			l.queries++
		}
	}
	ctx := context.Background()

	// The curve's batch kernel over the record points, and the unsharded
	// store of rung 2, each timed as a whole.
	coords := make([]uint32, 0, 2*len(ds.recs))
	for _, r := range ds.recs {
		coords = append(coords, r.Point...)
	}
	keys := make([]uint64, len(ds.recs))
	t0 := time.Now()
	curve.NewBatcher(ds.c).IndexBatch(coords, keys)
	l.res.set(perLayer, "curve.index_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(len(keys)), len(keys))
	t0 = time.Now()
	if l.one, err = store.Bulkload(ds.c, ds.recs); err != nil {
		return nil, err
	}
	l.res.set(perLayer, "store.bulkload_s", time.Since(t0).Seconds(), len(ds.recs))

	// Rungs 3 to 5 run against one daemon over the data set: the
	// workload's own, or for the router front a single daemon beside the
	// cluster.
	baseSpec := spec
	if spec.front == frontRouter {
		baseSpec.front = frontBinary
	}
	if l.base, err = openSession(ds.c, ds.recs, baseSpec, cfg); err != nil {
		return nil, err
	}
	defer l.base.close()
	var routed *session
	if spec.front == frontRouter {
		if routed, err = openSession(ds.c, ds.recs, spec, cfg); err != nil {
			return nil, err
		}
		defer routed.close()
	}
	if spec.front == frontDurable {
		l.res.Provenance.DataDir = l.base.dataDir
		l.res.Provenance.FlushPolicy = durablePolicy
	}
	ds.recs = nil
	if err := verifyBoxes(ctx, l.base, ds.work, 1); err != nil {
		l.res.wrong("warm-up: %v", err)
	}
	if routed != nil {
		if err := verifyBoxes(ctx, routed, ds.work, 1); err != nil {
			l.res.wrong("warm-up through the router: %v", err)
		}
	}

	l.rungDecompose()
	l.rungStore(ctx)
	l.rungService(ctx)
	l.rungWire(ctx)
	// The top rung is replayed twice, with spans and without; the
	// difference in throughput is what tracing costs.
	var on, off time.Duration
	if routed != nil {
		l.rungClient(ctx, l.tr)
		on = l.rungCluster(ctx, routed, l.tr)
		off = l.rungCluster(ctx, routed, nil)
	} else {
		on = l.rungClient(ctx, l.tr)
		off = l.rungClient(ctx, nil)
	}
	l.res.set(perLayer, "trace.overhead_pct", 100*(on.Seconds()-off.Seconds())/off.Seconds(), len(l.ops))

	tr := l.tr
	if l.queries > 0 {
		codec := (tr.total[spanWireEncode] + tr.total[spanWireDecode]).Seconds() * 1e6 / float64(l.queries)
		l.res.set(perLayer, "service.overhead_us_per_op", tr.usPerOp(spanServiceRange)-tr.usPerOp(spanStoreScan), l.queries)
		l.res.set(perLayer, "server.hop_us_per_op", tr.usPerOp(spanClientQuery)-tr.usPerOp(spanServiceRange), l.queries)
		l.res.set(perLayer, "trace.unexplained_us_per_op", tr.usPerOp(spanClientQuery)-tr.usPerOp(spanServiceRange)-codec, l.queries)
	}
	if spec.front == frontDurable {
		if err := l.durableMetrics(ctx); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, spec.name+".trace.jsonl")); err != nil {
		return nil, err
	}
	return l.res, nil
}

// rungDecompose is rung 1: the box's curve intervals, whose count is the
// clustering number.
func (l *ladder) rungDecompose() {
	var intervals int
	for i, o := range l.ops {
		if o.put {
			continue
		}
		t0 := time.Now()
		ivs := query.DecomposeBox(l.ds.c, l.ds.work.boxes[o.box])
		l.tr.add(i, spanDecompose, -1, t0, time.Now())
		intervals += len(ivs)
	}
	if l.queries == 0 {
		return
	}
	l.res.set(perLayer, "query.decompose_us_per_op", l.tr.usPerOp(spanDecompose), l.queries)
	l.res.set(perLayer, "query.intervals_per_op", float64(intervals)/float64(l.queries), l.queries)
}

// rungStore is rung 2: the intervals scanned on one unsharded store.
func (l *ladder) rungStore(ctx context.Context) {
	l.one.ResetStats()
	var records int
	for i, o := range l.ops {
		if o.put {
			continue
		}
		ivs := query.DecomposeBox(l.ds.c, l.ds.work.boxes[o.box])
		t0 := time.Now()
		res, err := l.one.Scan(ctx, ivs)
		l.tr.add(i, spanStoreScan, -1, t0, time.Now())
		l.check("store", i, err, len(res.Records), res.Complete())
		records += len(res.Records)
	}
	if l.queries == 0 {
		return
	}
	pages := l.one.Stats().LeafReads
	l.res.set(perLayer, "store.scan_us_per_op", l.tr.usPerOp(spanStoreScan), l.queries)
	l.res.set(perLayer, "store.leaf_pages_per_op", float64(pages)/float64(l.queries), l.queries)
	l.res.set(perLayer, "store.useful_record_ratio", float64(records)/float64(max(pages, 1)*l.one.PageSize()), records)
}

// rungService is rung 3: Service.Range and Service.Put in process, on the
// service the daemon serves, with the registry's counters read around it.
func (l *ladder) rungService(ctx context.Context) {
	svc := l.base.daemons[0].svc
	reg := svc.Metrics()
	counters := []string{"cache.hits", "cache.misses", "coalesce.shared", "pages.leaf_read"}
	before := map[string]int64{}
	for _, name := range counters {
		before[name] = reg.Counter(name).Value()
	}
	salt := l.nextSalt()
	var records int
	for i, o := range l.ops {
		if o.put {
			r := putRecord(l.ds.u, l.cfg.seed, salt+i)
			t0 := time.Now()
			err := svc.Put(ctx, r)
			l.tr.add(i, spanServicePut, -1, t0, time.Now())
			l.checkPut("service", i, err)
			continue
		}
		t0 := time.Now()
		res, err := svc.Range(ctx, l.ds.work.boxes[o.box])
		l.tr.add(i, spanServiceRange, -1, t0, time.Now())
		l.check("service", i, err, len(res.Records), res.Complete())
		records += len(res.Records)
	}
	delta := func(name string) float64 { return float64(reg.Counter(name).Value() - before[name]) }
	if l.puts > 0 {
		l.res.set(perLayer, "service.put_us_per_op", l.tr.usPerOp(spanServicePut), l.puts)
	}
	if l.queries == 0 {
		return
	}
	lookups := delta("cache.hits") + delta("cache.misses")
	l.res.set(perLayer, "service.range_us_per_op", l.tr.usPerOp(spanServiceRange), l.queries)
	l.res.set(perLayer, "service.cache_hit_rate", delta("cache.hits")/lookups, int(lookups))
	l.res.set(perLayer, "service.coalesce_rate", delta("coalesce.shared")/lookups, int(lookups))
	l.res.set(perLayer, "service.pages_per_op", delta("pages.leaf_read")/float64(l.queries), l.queries)
	l.res.set(perLayer, "service.records_per_op", float64(records)/float64(l.queries), l.queries)
}

func (l *ladder) nextSalt() int {
	l.putSalt += len(l.ds.work.ops)
	return l.putSalt
}

func (l *ladder) checkPut(rung string, i int, err error) {
	l.res.Attempted++
	if err != nil {
		l.failed(rung, i, fmt.Errorf("put: %w", err))
	}
}

// wireBatch is the server's batch size: results travel in frames of at
// most this many records.
const wireBatch = 4096

// rungWire is rung 4: each operation's result through the binary codec,
// frame by frame as the server would send it and the client read it.
func (l *ladder) rungWire(ctx context.Context) {
	svc := l.base.daemons[0].svc
	var buf []byte
	var recs []store.Record
	var slab []uint32
	var records, bytes int
	for i, o := range l.ops {
		if o.put {
			continue
		}
		res, err := svc.Range(ctx, l.ds.work.boxes[o.box])
		if err != nil {
			l.check("wire", i, err, 0, false)
			continue
		}
		var dg, want digest
		want.addRecords(res.Records)
		for lo := 0; lo < len(res.Records); lo += wireBatch {
			batch := res.Records[lo:min(lo+wireBatch, len(res.Records))]
			t0 := time.Now()
			buf = wire.BeginFrame(buf[:0], wire.TBatch, uint64(i))
			buf, err = wire.AppendBatchPayload(buf, batch)
			if err == nil {
				buf = wire.FinishFrame(buf, 0)
			}
			t1 := time.Now()
			l.tr.add(i, spanWireEncode, -1, t0, t1)
			if err != nil {
				break
			}
			bytes += len(buf)
			t0 = time.Now()
			var f wire.Frame
			if f, _, err = wire.DecodeFrame(buf); err == nil {
				recs, slab, err = wire.DecodeBatchInto(f.Payload, recs[:0], slab[:0])
			}
			l.tr.add(i, spanWireDecode, -1, t0, time.Now())
			if err != nil {
				break
			}
			dg.addRecords(recs)
		}
		if err == nil && dg != want {
			err = fmt.Errorf("codec round trip changed the records")
		}
		l.check("wire", i, err, int(dg.count), true)
		records += len(res.Records)
	}
	if records == 0 {
		return
	}
	l.res.set(perLayer, "wire.encode_ns_per_record", float64(l.tr.total[spanWireEncode].Nanoseconds())/float64(records), records)
	l.res.set(perLayer, "wire.decode_ns_per_record", float64(l.tr.total[spanWireDecode].Nanoseconds())/float64(records), records)
	l.res.set(perLayer, "wire.bytes_per_record", float64(bytes)/float64(records), records)
}

// rungClient is rung 5: the loopback client call, with a child span up to
// the first records. It returns the replay's wall time. With a nil tracer
// it is the spans-off replay and sets no metric.
func (l *ladder) rungClient(ctx context.Context, tr *tracer) time.Duration {
	cl := l.base.clients[0]
	before := cl.Stats()
	salt := l.nextSalt()
	start := time.Now()
	for i, o := range l.ops {
		if o.put {
			r := putRecord(l.ds.u, l.cfg.seed, salt+i)
			t0 := time.Now()
			err := l.base.put(ctx, 0, r)
			tr.add(i, spanClientPut, -1, t0, time.Now())
			l.checkPut("client", i, err)
			continue
		}
		t0 := time.Now()
		a, err := l.base.query(ctx, 0, l.ds.work.boxes[o.box], nil)
		id := tr.add(i, spanClientQuery, -1, t0, time.Now())
		if err == nil {
			tr.add(i, spanClientFirstBatch, id, t0, a.first)
		}
		l.check("client", i, err, a.records, a.complete)
	}
	wall := time.Since(start)
	if tr == nil || l.queries == 0 {
		return wall
	}
	after := cl.Stats()
	attempts := float64(max(after.Attempts-before.Attempts, 1))
	l.res.set(perLayer, "client.query_us_per_op", tr.usPerOp(spanClientQuery), l.queries)
	l.res.set(perLayer, "client.first_batch_us_per_op", tr.usPerOp(spanClientFirstBatch), l.queries)
	l.res.set(perLayer, "client.retries_per_op", float64(after.Retries-before.Retries)/float64(len(l.ops)), len(l.ops))
	l.res.set(perLayer, "server.shed_rate", float64(after.Shed-before.Shed)/attempts, int(attempts))
	return wall
}

// rungCluster is rung 6: Router.Query, its member legs timed by the Node
// decorator. It returns the replay's wall time; with a nil tracer it sets
// no metric.
func (l *ladder) rungCluster(ctx context.Context, routed *session, tr *tracer) time.Duration {
	reg := routed.router.Metrics()
	hedges, failovers := reg.Counter("router.hedges").Value(), reg.Counter("router.failovers").Value()
	routed.legs.take()
	var legs int
	var slowest time.Duration
	start := time.Now()
	for i, o := range l.ops {
		t0 := time.Now()
		a, err := routed.query(ctx, 0, l.ds.work.boxes[o.box], nil)
		id := tr.add(i, spanClusterQuery, -1, t0, time.Now())
		var worst time.Duration
		for _, leg := range routed.legs.take() {
			tr.add(i, spanClusterLeg, id, leg[0], leg[1])
			worst = max(worst, leg[1].Sub(leg[0]))
			legs++
		}
		slowest += worst
		l.check("cluster", i, err, a.records, a.complete)
	}
	wall := time.Since(start)
	if tr == nil {
		return wall
	}
	n := float64(len(l.ops))
	l.res.set(perLayer, "cluster.query_us_per_op", tr.usPerOp(spanClusterQuery), len(l.ops))
	l.res.set(perLayer, "cluster.slowest_leg_us_per_op", slowest.Seconds()*1e6/n, len(l.ops))
	l.res.set(perLayer, "cluster.legs_per_op", float64(legs)/n, len(l.ops))
	l.res.set(perLayer, "cluster.hop_us_per_op", tr.usPerOp(spanClusterQuery)-slowest.Seconds()*1e6/n, len(l.ops))
	l.res.set(perLayer, "cluster.hedges_per_op", float64(reg.Counter("router.hedges").Value()-hedges)/n, len(l.ops))
	l.res.set(perLayer, "cluster.failovers_per_op", float64(reg.Counter("router.failovers").Value()-failovers)/n, len(l.ops))
	return wall
}

// durableMetrics reads what the writes of the traced run left behind: the
// log device's counters, the store's flush and compaction counts, and
// after a final flush the runs and bytes on disk.
func (l *ladder) durableMetrics(ctx context.Context) error {
	svc := l.base.daemons[0].svc
	if err := svc.Flush(ctx); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	var runs int
	for j := range svc.Shards() {
		runs += svc.Durable(j).Runs()
	}
	disk, err := dirBytes(l.base.dataDir)
	if err != nil {
		return err
	}
	// Three replays wrote: the service rung and the client rung twice.
	puts := 3 * l.puts
	reg := svc.Metrics()
	l.res.set(perLayer, "store.flushes", float64(reg.Counter("durable.flushes").Value()), 0)
	l.res.set(perLayer, "store.compactions", float64(reg.Counter("durable.compactions").Value()), 0)
	l.res.set(perLayer, "store.runs_final", float64(runs), 0)
	// A record is 16 bytes of user data: two coordinates and a payload.
	l.res.set(perLayer, "store.disk_bytes_per_user_byte", float64(disk)/float64(16*(l.ds.seeded+puts)), 0)
	if puts > 0 {
		l.wal.mu.Lock()
		defer l.wal.mu.Unlock()
		l.res.set(perLayer, "wal.syncs_per_put", float64(l.wal.syncs)/float64(puts), puts)
		l.res.set(perLayer, "wal.bytes_per_put", float64(l.wal.bytes)/float64(puts), puts)
		l.res.set(perLayer, "wal.sync_us_p50", quantileUS(l.wal.syncNS, 0.50), len(l.wal.syncNS))
	}
	return nil
}

// traceSweep is stretch_sweep's traced run: each curve's sweep on one
// worker over the first grid, once with a span around it and once without.
func traceSweep(spec workloadSpec, cfg config) (*result, error) {
	g := cfg.grids[0]
	u, err := grid.New(g[0], g[1])
	if err != nil {
		return nil, err
	}
	res := newResult(spec, cfg, true, len(sweepCurves)*int(u.N()))
	res.Provenance.Records, res.Provenance.Clients = 0, 1
	tr := &tracer{t0: time.Now()}
	var on, off time.Duration
	for i, name := range sweepCurves {
		c, err := curve.ByName(name, u, cfg.seed)
		if err != nil {
			return nil, err
		}
		s := sweep{c: c, d: g[0], k: g[1]}
		t0 := time.Now()
		nn := core.NNStretchResult(c, 1)
		t1 := time.Now()
		tr.add(i, spanNNSweep, -1, t0, t1)
		on += t1.Sub(t0)
		res.set(perLayer, "curve.nn_sweep_ns_per_cell."+name, float64(t1.Sub(t0).Nanoseconds())/float64(u.N()), int(u.N()))
		t0 = time.Now()
		again := core.NNStretchResult(c, 1)
		off += time.Since(t0)
		res.Attempted += int(u.N())
		err = checkSweep(s, nn)
		if err == nil && again != nn {
			err = fmt.Errorf("%v: %v, then %v", s, nn, again)
		}
		if err != nil {
			res.Failed += int(u.N())
			res.wrong("%v", err)
		}
	}
	res.set(perLayer, "trace.overhead_pct", 100*(on.Seconds()-off.Seconds())/off.Seconds(), len(sweepCurves))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	return res, tr.write(filepath.Join(cfg.outDir, spec.name+".trace.jsonl"))
}
