package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/wal"
)

// Durable is the mutable, crash-safe store: an LSM tree keyed by the curve.
// Writes append to a write-ahead log and accumulate in a memtable; flushes
// turn the memtable into immutable, curve-ordered run files (the same format
// WriteFile produces, read through the same checksummed, retried page
// devices); background compaction merges runs back down. A Put or Delete
// whose call returned nil has been fsynced and survives any crash; one that
// returned an error left no trace. Recovery on open replays the log past the
// last flushed sequence number, truncates torn tails, and deletes orphan
// files from interrupted flushes — replay is idempotent because the
// manifest's flushed-sequence cut is authoritative.
//
// Reads merge every run with the memtable, newest shadowing oldest through
// tombstones. Degraded reads keep the store's exact-tiling contract: the
// records returned plus ScanResult.Unavailable tile the scanned intervals
// precisely, across however many runs the answer was assembled from.
type Durable struct {
	c   curve.Curve
	dir string
	cfg durableConfig

	mu         sync.Mutex
	log        *wal.Log
	mem        *wal.Memtable
	runs       []*durableRun // oldest to newest
	gen        uint64
	flushedSeq uint64
	nextSeq    uint64
	retired    []io.Closer // devices of compacted-away runs, closed at Close
	compacting bool
	closed     bool
	wg         sync.WaitGroup

	reg         *metrics.Registry
	appends     *metrics.Counter
	replays     *metrics.Counter
	tornTails   *metrics.Counter
	flushes     *metrics.Counter
	compactions *metrics.Counter
	flushUS     *metrics.Histogram
}

// durableRun is one immutable run: a read-only Store over its file plus the
// RAM-resident tombstones it carries against strictly older runs.
type durableRun struct {
	name     string
	st       *Store
	tombKeys []uint64
	tombs    []Record
	lastSeq  uint64
}

// ErrClosed is returned by operations on a closed (or crashed) durable
// store.
var ErrClosed = errors.New("store: durable store closed")

// OpenDurable opens (or initializes) the durable store rooted at dir for
// curve c. On an existing directory it performs crash recovery: loads the
// manifest, opens every live run, replays the write-ahead log past the
// manifest's flushed-sequence cut, truncates any torn tail the crash left,
// and removes orphan files from interrupted flushes or compactions.
func OpenDurable(dir string, c curve.Curve, opts ...DurableOption) (*Durable, error) {
	cfg := durableConfig{pageSize: 64, fanout: 64, memLimit: 1024, compactThreshold: 4, autoCompact: true}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt.applyDurable(&cfg); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: durable dir: %w", err)
	}
	reg := cfg.reg
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d := &Durable{
		c:           c,
		dir:         dir,
		cfg:         cfg,
		mem:         wal.NewMemtable(),
		reg:         reg,
		appends:     reg.Counter("wal.appends"),
		replays:     reg.Counter("wal.replays"),
		tornTails:   reg.Counter("wal.torn_tails_truncated"),
		flushes:     reg.Counter("durable.flushes"),
		compactions: reg.Counter("durable.compactions"),
		flushUS:     reg.Histogram("durable.flush_us"),
	}
	man, err := wal.ReadManifest(dir)
	switch {
	case errors.Is(err, wal.ErrNoManifest):
		if err := d.initFresh(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		if err := d.recover(man); err != nil {
			return nil, err
		}
	}
	if err := d.removeOrphans(); err != nil {
		d.closeHandles()
		return nil, err
	}
	return d, nil
}

// initFresh lays down generation 1: an empty log, then the manifest that
// makes it live. A crash between the two steps leaves an orphan log file the
// next open deletes.
func (d *Durable) initFresh() error {
	name := wal.LogFileName(1)
	path := filepath.Join(d.dir, name)
	os.Remove(path) // stale orphan from a crash before the first manifest
	log, err := wal.Create(path, d.cfg.wrapWAL)
	if err != nil {
		return err
	}
	if err := wal.WriteManifest(d.dir, wal.Manifest{Generation: 1, WAL: name}); err != nil {
		log.Close()
		return err
	}
	d.log, d.gen, d.flushedSeq, d.nextSeq = log, 1, 0, 1
	return nil
}

// recover rebuilds the store from a manifest: open the runs it lists, then
// replay the log it points at, folding in only entries past the flushed cut
// so replaying after a crash mid-flush never double-applies.
func (d *Durable) recover(man wal.Manifest) error {
	for _, name := range man.Runs {
		run, err := d.openDurableRun(name)
		if err != nil {
			d.closeHandles()
			return err
		}
		d.runs = append(d.runs, run)
	}
	log, entries, tornBytes, err := wal.Open(filepath.Join(d.dir, man.WAL), d.cfg.wrapWAL)
	if err != nil {
		d.closeHandles()
		return err
	}
	d.replays.Inc()
	if tornBytes > 0 {
		d.tornTails.Inc()
	}
	for _, e := range entries {
		if e.Seq > man.FlushedSeq {
			d.mem.Apply(e)
		}
	}
	d.log = log
	d.gen = man.Generation
	d.flushedSeq = man.FlushedSeq
	d.nextSeq = man.FlushedSeq + 1
	if s := log.LastSeq(); s >= d.nextSeq {
		d.nextSeq = s + 1
	}
	return nil
}

// openDurableRun opens one run file as a read-only store plus its
// RAM-resident tombstone column.
func (d *Durable) openDurableRun(name string) (*durableRun, error) {
	rf, err := openRun(filepath.Join(d.dir, name))
	if err != nil {
		return nil, err
	}
	bc := buildConfig{fanout: d.cfg.fanout, wrap: d.cfg.wrapDev, retry: d.cfg.retry}
	st, err := storeOverRun(rf, d.c, bc)
	if err != nil {
		rf.dev.Close()
		return nil, err
	}
	return &durableRun{
		name:     name,
		st:       st,
		tombKeys: rf.tombKeys,
		tombs:    rf.tombs,
		lastSeq:  rf.hdr.lastSeq,
	}, nil
}

// removeOrphans deletes run, log, and temp files in the directory that the
// manifest does not reference — the debris of a crash mid-flush or
// mid-compaction. Acknowledged data is never among them: the manifest commit
// is the single point a file becomes live.
func (d *Durable) removeOrphans() error {
	live := map[string]bool{wal.ManifestName: true, filepath.Base(d.log.Path()): true}
	for _, r := range d.runs {
		live[r.name] = true
	}
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: durable dir: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || live[name] {
			continue
		}
		ours := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "run-") && strings.HasSuffix(name, ".sfc")) ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"))
		if !ours {
			continue // not our file; leave it alone
		}
		if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
			return fmt.Errorf("store: removing orphan %s: %w", name, err)
		}
	}
	return nil
}

// closeHandles releases every open OS handle without any durability work.
func (d *Durable) closeHandles() {
	if d.log != nil {
		d.log.Close()
	}
	for _, r := range d.runs {
		r.st.CloseDevice()
	}
	for _, c := range d.retired {
		c.Close()
	}
	d.retired = nil
}

// Dir returns the store's root directory.
func (d *Durable) Dir() string { return d.dir }

// Metrics returns the registry the store's durability counters live in.
func (d *Durable) Metrics() *metrics.Registry { return d.reg }

// Runs returns the current number of immutable runs.
func (d *Durable) Runs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.runs)
}

// MemOps returns the number of unflushed operations in the memtable.
func (d *Durable) MemOps() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem.Ops()
}

// LastSeq returns the sequence number of the last acknowledged operation.
func (d *Durable) LastSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextSeq - 1
}

// Put durably inserts one record: the operation is fsynced into the
// write-ahead log before Put returns nil. Records are multisets — putting
// the same (point, payload) twice stores two instances.
func (d *Durable) Put(ctx context.Context, r Record) error {
	return d.apply(ctx, wal.KindPut, r)
}

// Delete durably removes every stored instance matching (point, payload) —
// from the memtable directly, from flushed runs via a tombstone. Deleting a
// record that was never stored is a durable no-op.
func (d *Durable) Delete(ctx context.Context, r Record) error {
	return d.apply(ctx, wal.KindDelete, r)
}

func (d *Durable) apply(ctx context.Context, kind wal.Kind, r Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	u := d.c.Universe()
	if !u.Contains(r.Point) {
		return fmt.Errorf("store: record at %v outside %v", r.Point, u)
	}
	e := wal.Entry{
		Kind:    kind,
		Key:     d.c.Index(r.Point),
		Point:   r.Point.Clone(),
		Payload: r.Payload,
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	e.Seq = d.nextSeq
	if err := d.log.Append(e); err != nil {
		return err
	}
	d.nextSeq++
	d.appends.Inc()
	d.mem.Apply(e)
	if d.mem.Ops() >= d.cfg.memLimit {
		return d.flushLocked(ctx)
	}
	return nil
}

// Flush forces the memtable into a new immutable run. A flush is atomic
// against crashes: the run file and the next generation's empty log are
// written first, and only the manifest rename makes them live — a crash at
// any point leaves either the old state (log replay re-fills the memtable)
// or the new one, never both and never neither.
func (d *Durable) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.flushLocked(ctx)
}

func (d *Durable) flushLocked(ctx context.Context) error {
	if d.mem.Ops() == 0 {
		return nil
	}
	start := time.Now()
	puts, tombs := d.mem.Sorted()
	keys := make([]uint64, len(puts))
	recs := make([]Record, len(puts))
	for i, e := range puts {
		keys[i], recs[i] = e.Key, Record{Point: grid.Point(e.Point), Payload: e.Payload}
	}
	tombKeys := make([]uint64, len(tombs))
	tombRecs := make([]Record, len(tombs))
	for i, e := range tombs {
		tombKeys[i], tombRecs[i] = e.Key, Record{Point: grid.Point(e.Point), Payload: e.Payload}
	}
	newGen := d.gen + 1
	lastSeq := d.log.LastSeq()
	runName := wal.RunFileName(newGen)
	h := runHeader{d: d.c.Universe().D(), pageSize: d.cfg.pageSize, generation: newGen, lastSeq: lastSeq}
	if err := writeRun(filepath.Join(d.dir, runName), h, keys, recs, tombKeys, tombRecs); err != nil {
		return err
	}
	logName := wal.LogFileName(newGen)
	logPath := filepath.Join(d.dir, logName)
	os.Remove(logPath) // orphan from a crash after a previous attempt
	newLog, err := wal.Create(logPath, d.cfg.wrapWAL)
	if err != nil {
		os.Remove(filepath.Join(d.dir, runName))
		return err
	}
	names := make([]string, 0, len(d.runs)+1)
	for _, r := range d.runs {
		names = append(names, r.name)
	}
	names = append(names, runName)
	man := wal.Manifest{Generation: newGen, Runs: names, WAL: logName, FlushedSeq: lastSeq}
	if err := wal.WriteManifest(d.dir, man); err != nil {
		newLog.Close()
		os.Remove(logPath)
		os.Remove(filepath.Join(d.dir, runName))
		return err
	}
	// The manifest is committed; from here the new state is authoritative.
	run, err := d.openDurableRun(runName)
	if err != nil {
		newLog.Close()
		return err
	}
	oldPath := d.log.Path()
	d.log.Close()
	os.Remove(oldPath)
	d.log = newLog
	d.runs = append(d.runs, run)
	d.gen = newGen
	d.flushedSeq = lastSeq
	d.mem.Reset()
	d.flushes.Inc()
	d.flushUS.Observe(time.Since(start).Microseconds())
	d.maybeCompactLocked()
	return nil
}

// maybeCompactLocked kicks off one background compaction when the run count
// crosses the threshold. At most one compaction runs at a time.
func (d *Durable) maybeCompactLocked() {
	if !d.cfg.autoCompact || d.compacting || len(d.runs) < d.cfg.compactThreshold {
		return
	}
	d.compacting = true
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.compact(context.Background()) // the store owns this goroutine; Close waits for it
	}()
}

// Compact merges every current run into one, applying tombstones and then
// dropping them (nothing older remains to shadow). Runs flushed while the
// merge is in progress are untouched: compaction replaces exactly the
// prefix of runs it snapshotted. The swap is committed by a manifest write;
// replaced run files are unlinked and their devices retired until Close so
// in-flight scans finish safely.
func (d *Durable) Compact(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.compacting {
		d.mu.Unlock()
		return errors.New("store: compaction already in progress")
	}
	d.compacting = true
	d.mu.Unlock()
	return d.compact(ctx)
}

func (d *Durable) compact(ctx context.Context) error {
	defer func() {
		d.mu.Lock()
		d.compacting = false
		d.mu.Unlock()
	}()
	d.mu.Lock()
	snapshot := d.runs[:len(d.runs):len(d.runs)]
	d.mu.Unlock()
	if len(snapshot) < 2 {
		return nil
	}
	keys, recs, err := mergeRuns(ctx, d.c, snapshot)
	if err != nil {
		return fmt.Errorf("store: compacting: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	newGen := d.gen + 1
	runName := wal.RunFileName(newGen)
	h := runHeader{
		d:          d.c.Universe().D(),
		pageSize:   d.cfg.pageSize,
		generation: newGen,
		lastSeq:    snapshot[len(snapshot)-1].lastSeq,
	}
	if err := writeRun(filepath.Join(d.dir, runName), h, keys, recs, nil, nil); err != nil {
		return err
	}
	names := []string{runName}
	for _, r := range d.runs[len(snapshot):] {
		names = append(names, r.name)
	}
	man := wal.Manifest{Generation: newGen, Runs: names, WAL: filepath.Base(d.log.Path()), FlushedSeq: d.flushedSeq}
	if err := wal.WriteManifest(d.dir, man); err != nil {
		os.Remove(filepath.Join(d.dir, runName))
		return err
	}
	merged, err := d.openDurableRun(runName)
	if err != nil {
		return err
	}
	for _, r := range snapshot {
		if c, ok := r.st.device.(io.Closer); ok {
			d.retired = append(d.retired, c)
		}
		os.Remove(filepath.Join(d.dir, r.name))
	}
	d.runs = append([]*durableRun{merged}, d.runs[len(snapshot):]...)
	d.gen = newGen
	d.compactions.Inc()
	return nil
}

// mergeRuns returns the survivors of the snapshotted runs sorted by key,
// older instances first on ties, by draining the merge every read runs —
// over the runs alone (no memtable) and the whole universe. The merge is
// always strict: a degraded one would drop the records of a dark page from
// the run that replaces these, so a page that stays dark fails compaction
// instead, with an error naming the run.
func mergeRuns(ctx context.Context, c curve.Curve, snapshot []*durableRun) ([]uint64, []Record, error) {
	whole := []query.Interval{{Lo: 0, Hi: c.Universe().N()}}
	cur, err := openMerge(snapshot, nil, nil, whole, ScanStrict())
	if err != nil {
		return nil, nil, err
	}
	defer cur.Close()
	total := 0
	for _, r := range snapshot {
		total += r.st.Len()
	}
	keys := make([]uint64, 0, total)
	recs := make([]Record, 0, total)
	for {
		b, err := cur.Next(ctx)
		if err == io.EOF {
			return keys, recs, nil
		}
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, b.Keys...)
		recs = append(recs, b.Records...)
	}
}

// Scan answers a query over the merged store: every run plus the memtable,
// newest shadowing oldest — ScanCursor drained by Collect. Strictness and
// degraded tiling follow Store.Scan: under ScanStrict the first dark page
// in any run fails the whole scan with ErrPageUnavailable; in degraded mode
// the union of every run's dark intervals is reported, and records whose
// keys fall inside it are withheld even when some run could serve them —
// so Records plus Unavailable tile the scanned intervals exactly, the same
// contract a single store gives.
func (d *Durable) Scan(ctx context.Context, ivs []query.Interval, opts ...ScanOption) (ScanResult, error) {
	cur, err := d.ScanCursor(ivs, opts...)
	if err != nil {
		return ScanResult{}, err
	}
	return Collect(ctx, cur)
}

// ScanBox decomposes the box through the store's curve and scans it.
func (d *Durable) ScanBox(ctx context.Context, b query.Box, opts ...ScanOption) (ScanResult, error) {
	return d.Scan(ctx, query.DecomposeBox(d.c, b), opts...)
}

// Bulkload loads records into a fresh, empty durable store as one immutable
// run, bypassing the WAL — the fast path for initial loads, matching
// Bulkload's cost instead of one log append per record. It fails if the
// store already holds any data.
func (d *Durable) Bulkload(ctx context.Context, recs []Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	u := d.c.Universe()
	keys := make([]uint64, len(recs))
	order := make([]int, len(recs))
	for i, r := range recs {
		if !u.Contains(r.Point) {
			return fmt.Errorf("store: record %d at %v outside %v", i, r.Point, u)
		}
		keys[i] = d.c.Index(r.Point)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sortedKeys := make([]uint64, len(recs))
	sortedRecs := make([]Record, len(recs))
	for slot, i := range order {
		sortedKeys[slot] = keys[i]
		sortedRecs[slot] = Record{Point: recs[i].Point.Clone(), Payload: recs[i].Payload}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(d.runs) > 0 || d.mem.Ops() > 0 || d.log.LastSeq() > 0 {
		return errors.New("store: Bulkload requires an empty durable store")
	}
	newGen := d.gen + 1
	runName := wal.RunFileName(newGen)
	h := runHeader{d: u.D(), pageSize: d.cfg.pageSize, generation: newGen}
	if err := writeRun(filepath.Join(d.dir, runName), h, sortedKeys, sortedRecs, nil, nil); err != nil {
		return err
	}
	man := wal.Manifest{Generation: newGen, Runs: []string{runName}, WAL: filepath.Base(d.log.Path()), FlushedSeq: d.flushedSeq}
	if err := wal.WriteManifest(d.dir, man); err != nil {
		os.Remove(filepath.Join(d.dir, runName))
		return err
	}
	run, err := d.openDurableRun(runName)
	if err != nil {
		return err
	}
	d.runs = append(d.runs, run)
	d.gen = newGen
	return nil
}

// Close waits for any background compaction and releases every OS handle.
// No flush happens: acknowledged operations are already durable in the log
// and will be replayed by the next open.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closeHandles()
	return nil
}

// Crash simulates an abrupt kill plus power loss for recovery tests and
// chaos campaigns: unsynced log bytes are discarded, nothing is flushed, no
// manifest is written, and every handle is dropped. A concurrent compaction
// is allowed to finish its current step but can no longer commit.
func (d *Durable) Crash() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.log.Crash()
	for _, r := range d.runs {
		r.st.CloseDevice()
	}
	for _, c := range d.retired {
		c.Close()
	}
	d.retired = nil
	return err
}

// CrashMidPut simulates dying in the middle of appending a put for r: the
// log is left with a seeded torn fragment of the entry — never a complete
// frame — and the store shuts down as in Crash. The put was never
// acknowledged, so recovery must truncate the fragment and the record must
// not appear after reopening.
func (d *Durable) CrashMidPut(r Record, seed int64) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.closed = true
	e := wal.Entry{
		Seq:     d.nextSeq,
		Kind:    wal.KindPut,
		Key:     d.c.Index(r.Point),
		Point:   r.Point.Clone(),
		Payload: r.Payload,
	}
	d.mu.Unlock()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.log.CrashTorn(e, seed)
	for _, run := range d.runs {
		run.st.CloseDevice()
	}
	for _, c := range d.retired {
		c.Close()
	}
	d.retired = nil
	return err
}
