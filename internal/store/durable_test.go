package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/wal"
)

// durableModel is the ground truth a durable store is checked against: the
// surviving record instances in acknowledgment order.
type durableModel struct {
	c    curve.Curve
	recs []Record
}

func (m *durableModel) put(r Record) { m.recs = append(m.recs, r) }
func (m *durableModel) delete(r Record) {
	kept := m.recs[:0]
	for _, x := range m.recs {
		if m.c.Index(x.Point) != m.c.Index(r.Point) || x.Payload != r.Payload {
			kept = append(kept, x)
		}
	}
	m.recs = kept
}

// expect returns the surviving records sorted stably by curve key — the
// order a full-universe scan must produce.
func (m *durableModel) expect() []Record {
	type keyed struct {
		key uint64
		rec Record
	}
	ks := make([]keyed, len(m.recs))
	for i, r := range m.recs {
		ks[i] = keyed{m.c.Index(r.Point), r}
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j].key < ks[j-1].key; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	out := make([]Record, len(ks))
	for i, k := range ks {
		out[i] = k.rec
	}
	return out
}

// scan is the durable oracle: what a degraded scan of ivs must return from
// d while it holds exactly the model's records. The records are expect()'s,
// kept when their key is in an interval and outside the dark union; the
// union and PagesRead come from modelScan over each run's key column and
// the pages its blackoutDevice has lost (every run's device must be one).
func (m *durableModel) scan(d *Durable, ivs []query.Interval) ScanResult {
	var res ScanResult
	var spans []query.Interval
	for _, r := range d.runs {
		var lost []int
		for p := range r.st.device.(*blackoutDevice).dead {
			lost = append(lost, p)
		}
		run := modelScan(r.st.keys, nil, r.st.pageSize, lost, ivs)
		spans = append(spans, run.Unavailable...)
		res.PagesRead += run.PagesRead
	}
	res.Unavailable = modelUnion(spans)
	for _, r := range m.expect() {
		if k := m.c.Index(r.Point); modelCovers(ivs, k) && !modelCovers(res.Unavailable, k) {
			res.Records = append(res.Records, r)
		}
	}
	return res
}

func wholeUniverse(u *grid.Universe) []query.Interval {
	return []query.Interval{{Lo: 0, Hi: u.N()}}
}

func checkDurable(t *testing.T, d *Durable, m *durableModel, label string) {
	t.Helper()
	res, err := d.Scan(context.Background(), wholeUniverse(d.c.Universe()), ScanStrict())
	if err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	want := m.expect()
	if len(want) == 0 {
		want = nil
	}
	got := res.Records
	if len(got) == 0 {
		got = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: scan returned %d records, want %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
}

func durableRec(u *grid.Universe, rng *rand.Rand, payload uint64) Record {
	p := u.NewPoint()
	for j := range p {
		p[j] = uint32(rng.Intn(int(u.Side())))
	}
	return Record{Point: p, Payload: payload}
}

func TestDurablePutFlushReopen(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	d, err := OpenDurable(dir, h, WithDurablePageSize(4), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	m := &durableModel{c: h}
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		r := durableRec(u, rng, uint64(i))
		if err := d.Put(ctx, r); err != nil {
			t.Fatal(err)
		}
		m.put(r)
	}
	checkDurable(t, d, m, "memtable only")
	if err := d.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d.Runs() != 1 || d.MemOps() != 0 {
		t.Fatalf("after flush: runs=%d memOps=%d", d.Runs(), d.MemOps())
	}
	checkDurable(t, d, m, "after flush")
	for i := 60; i < 90; i++ {
		r := durableRec(u, rng, uint64(i))
		if err := d.Put(ctx, r); err != nil {
			t.Fatal(err)
		}
		m.put(r)
	}
	checkDurable(t, d, m, "run + memtable")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, h, WithDurablePageSize(4), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Metrics().Counter("wal.replays").Value(); got != 1 {
		t.Fatalf("wal.replays = %d", got)
	}
	checkDurable(t, d2, m, "after reopen (WAL replay)")
	if d2.LastSeq() != 90 {
		t.Fatalf("LastSeq = %d after 90 acked ops", d2.LastSeq())
	}
}

func TestDurableCrashLosesNothingAcked(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	d, err := OpenDurable(dir, h, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	m := &durableModel{c: h}
	rng := rand.New(rand.NewSource(2))
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		r := durableRec(u, rng, uint64(i))
		if err := d.Put(ctx, r); err != nil {
			t.Fatal(err)
		}
		m.put(r)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ctx, durableRec(u, rng, 99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after crash: %v", err)
	}
	d2, err := OpenDurable(dir, h, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	checkDurable(t, d2, m, "after crash")
}

func TestDurableCrashMidPutTruncatesTornTail(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	ctx := context.Background()
	for seed := int64(0); seed < 10; seed++ {
		dir := t.TempDir()
		d, err := OpenDurable(dir, h, WithAutoCompact(false))
		if err != nil {
			t.Fatal(err)
		}
		m := &durableModel{c: h}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			r := durableRec(u, rng, uint64(i))
			if err := d.Put(ctx, r); err != nil {
				t.Fatal(err)
			}
			m.put(r)
		}
		// Die mid-append: the unacked record must vanish, the tail must heal.
		unacked := durableRec(u, rng, 1000)
		if err := d.CrashMidPut(unacked, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d2, err := OpenDurable(dir, h, WithAutoCompact(false))
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		checkDurable(t, d2, m, fmt.Sprintf("seed %d after torn crash", seed))
		torn := d2.Metrics().Counter("wal.torn_tails_truncated").Value()
		if torn > 1 {
			t.Fatalf("seed %d: torn_tails_truncated = %d", seed, torn)
		}
		// Recovery is idempotent: a second crashless reopen sees the same state.
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
		d3, err := OpenDurable(dir, h, WithAutoCompact(false))
		if err != nil {
			t.Fatal(err)
		}
		checkDurable(t, d3, m, fmt.Sprintf("seed %d second reopen", seed))
		if got := d3.Metrics().Counter("wal.torn_tails_truncated").Value(); got != 0 {
			t.Fatalf("seed %d: tail torn again after healing: %d", seed, got)
		}
		d3.Close()
	}
}

func TestDurableDeleteAndTombstoneShadowing(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	d, err := OpenDurable(dir, h, WithDurablePageSize(4), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := &durableModel{c: h}
	ctx := context.Background()
	a := Record{Point: grid.Point{1, 2}, Payload: 10}
	b := Record{Point: grid.Point{3, 3}, Payload: 20}
	step := func(op string, r Record) {
		t.Helper()
		var err error
		switch op {
		case "put":
			err = d.Put(ctx, r)
			m.put(r)
		case "del":
			err = d.Delete(ctx, r)
			m.delete(r)
		case "flush":
			err = d.Flush(ctx)
		}
		if err != nil {
			t.Fatalf("%s %v: %v", op, r, err)
		}
		checkDurable(t, d, m, op)
	}
	step("put", a)
	step("put", a) // second instance of the same record
	step("put", b)
	step("flush", Record{})
	step("del", a) // tombstone must shadow both flushed instances
	step("put", a) // resurrection after delete
	step("flush", Record{})
	step("del", b)
	step("flush", Record{}) // flush a tombstone-only memtable
	if d.Runs() != 3 {
		t.Fatalf("runs = %d", d.Runs())
	}
	// Shadowing survives reopen and compaction alike.
	if err := d.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if d.Runs() != 1 {
		t.Fatalf("runs after compact = %d", d.Runs())
	}
	checkDurable(t, d, m, "after compact")
}

func TestDurableCompactionEquivalence(t *testing.T) {
	u := grid.MustNew(2, 5)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	d, err := OpenDurable(dir, h, WithDurablePageSize(8), WithAutoCompact(false), WithMemLimit(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := &durableModel{c: h}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	live := []Record{}
	for round := 0; round < 5; round++ {
		for i := 0; i < 80; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				r := live[j]
				live = append(live[:j], live[j+1:]...)
				if err := d.Delete(ctx, r); err != nil {
					t.Fatal(err)
				}
				m.delete(r)
			} else {
				r := durableRec(u, rng, uint64(round*1000+i))
				if err := d.Put(ctx, r); err != nil {
					t.Fatal(err)
				}
				m.put(r)
				live = append(live, r)
			}
		}
		if err := d.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if d.Runs() != 5 {
		t.Fatalf("runs = %d", d.Runs())
	}
	checkDurable(t, d, m, "before compact")
	// Box scans agree across the compaction boundary, not just full scans.
	boxes := make([]query.Box, 8)
	before := make([]ScanResult, len(boxes))
	for i := range boxes {
		boxes[i] = testBox(rng, u)
		r, err := d.ScanBox(ctx, boxes[i], ScanStrict())
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r
	}
	if err := d.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if d.Runs() != 1 {
		t.Fatalf("runs after compact = %d", d.Runs())
	}
	checkDurable(t, d, m, "after compact")
	for i, b := range boxes {
		r, err := d.ScanBox(ctx, b, ScanStrict())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Records, before[i].Records) {
			t.Fatalf("box %d: records changed across compaction", i)
		}
	}
	if got := d.Metrics().Counter("durable.compactions").Value(); got != 1 {
		t.Fatalf("durable.compactions = %d", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, h, WithDurablePageSize(8), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	checkDurable(t, d2, m, "after compact + reopen")
}

func TestDurableAutoFlushAndAutoCompact(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	d, err := OpenDurable(t.TempDir(), h, WithMemLimit(10), WithCompactThreshold(3))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := &durableModel{c: h}
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		r := durableRec(u, rng, uint64(i))
		if err := d.Put(ctx, r); err != nil {
			t.Fatal(err)
		}
		m.put(r)
	}
	if got := d.Metrics().Counter("durable.flushes").Value(); got != 10 {
		t.Fatalf("durable.flushes = %d after 100 puts with limit 10", got)
	}
	if d.MemOps() != 0 {
		t.Fatalf("memOps = %d", d.MemOps())
	}
	checkDurable(t, d, m, "after auto flushes")
}

func TestDurableOrphanCleanup(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	d, err := OpenDurable(dir, h, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	m := &durableModel{c: h}
	ctx := context.Background()
	r := Record{Point: grid.Point{2, 2}, Payload: 1}
	if err := d.Put(ctx, r); err != nil {
		t.Fatal(err)
	}
	m.put(r)
	if err := d.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Debris a crash mid-flush could leave: an uncommitted run, a next-gen
	// log, a temp manifest — plus a foreign file that must be left alone.
	for _, n := range []string{"run-000099.sfc", "wal-000099.log", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, h, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	checkDurable(t, d2, m, "after orphan cleanup")
	for _, n := range []string{"run-000099.sfc", "wal-000099.log", "MANIFEST.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery", n)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file deleted: %v", err)
	}
}

func TestDurableBulkloadFastPath(t *testing.T) {
	u := grid.MustNew(2, 5)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	d, err := OpenDurable(dir, h, WithDurablePageSize(8), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	recs := randomRecords(u, 500, 11)
	ctx := context.Background()
	if err := d.Bulkload(ctx, recs); err != nil {
		t.Fatal(err)
	}
	m := &durableModel{c: h}
	for _, r := range recs {
		m.put(r)
	}
	checkDurable(t, d, m, "after bulkload")
	if d.LastSeq() != 0 {
		t.Fatalf("bulkload consumed sequence numbers: %d", d.LastSeq())
	}
	if err := d.Bulkload(ctx, recs); err == nil {
		t.Fatal("second bulkload into non-empty store accepted")
	}
	// Mutations layer on top of the bulkloaded run.
	extra := Record{Point: grid.Point{0, 0}, Payload: 9999}
	if err := d.Put(ctx, extra); err != nil {
		t.Fatal(err)
	}
	m.put(extra)
	checkDurable(t, d, m, "bulkload + put")
	d.Close()
	d2, err := OpenDurable(dir, h, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	checkDurable(t, d2, m, "bulkload reopen")
}

// blackoutDevice fails every read of the listed pages permanently.
type blackoutDevice struct {
	PageDevice
	dead map[int]bool
}

func (b *blackoutDevice) ReadPage(id int) (Page, error) {
	if b.dead[id] {
		return Page{}, fmt.Errorf("%w: blackout page %d", ErrPermanent, id)
	}
	return b.PageDevice.ReadPage(id)
}

// TestDurableStrictSurfacesErrPageUnavailable pins the satellite contract on
// the merged scan path: when any run has a dark interval, a strict scan
// fails with an error matching store.ErrPageUnavailable via errors.Is, and a
// degraded scan keeps the exact tiling — records inside the dark union are
// withheld even when another layer (here the memtable) could serve them.
func TestDurableStrictSurfacesErrPageUnavailable(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	wrap := func(dev PageDevice) (PageDevice, error) {
		return &blackoutDevice{PageDevice: dev, dead: map[int]bool{0: true}}, nil
	}
	d, err := OpenDurable(dir, h, WithDurablePageSize(4), WithAutoCompact(false),
		WithRunWrapper(wrap), WithDurableRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		if err := d.Put(ctx, durableRec(u, rng, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	whole := wholeUniverse(u)
	if _, err := d.Scan(ctx, whole, ScanStrict()); !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("strict scan over dark page: %v, want ErrPageUnavailable", err)
	}
	res, err := d.Scan(ctx, whole)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("degraded scan reports complete over a dark page")
	}
	// Exact tiling across layers: a fresh memtable put whose key lands
	// inside the dark union must be withheld; one outside must be returned.
	for i := 0; i < 200; i++ {
		r := durableRec(u, rng, uint64(10000+i))
		key := h.Index(r.Point)
		if err := d.Put(ctx, r); err != nil {
			t.Fatal(err)
		}
		got, err := d.Scan(ctx, whole)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, rec := range got.Records {
			if rec.Payload == r.Payload {
				found = true
			}
		}
		inDark := query.IntervalsContain(got.Unavailable, key)
		if found == inDark {
			t.Fatalf("put %d (key %d): found=%v inDark=%v — tiling broken", i, key, found, inDark)
		}
		if err := d.Delete(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableCursorEqualsScan: Durable.Scan and the drained Durable cursor
// — one k-way merge of runs, tombstones and memtable — both return what the
// durable oracle computes, with a seeded sixth of every run's pages lost.
// Each box at a random batch size, the cursor twice so the second pass runs
// on recycled buffers.
func TestDurableCursorEqualsScan(t *testing.T) {
	u := grid.MustNew(2, 5)
	h := curve.NewHilbert(u)
	ctx := context.Background()
	for _, lossSeed := range []int64{0, 21, 22} {
		lossRng := rand.New(rand.NewSource(lossSeed))
		wrap := func(dev PageDevice) (PageDevice, error) {
			dead := map[int]bool{}
			for p := 0; lossSeed != 0 && p < dev.NumPages(); p++ {
				if lossRng.Float64() < 0.15 {
					dead[p] = true
				}
			}
			return &blackoutDevice{PageDevice: dev, dead: dead}, nil
		}
		d, err := OpenDurable(t.TempDir(), h, WithDurablePageSize(4), WithMemLimit(1<<20),
			WithAutoCompact(false), WithRunWrapper(wrap))
		if err != nil {
			t.Fatal(err)
		}
		m := &durableModel{c: h}
		rng := rand.New(rand.NewSource(lossSeed + 7))
		pool := make([]grid.Point, 30)
		for i := range pool {
			pool[i] = u.MustPoint(uint32(rng.Intn(int(u.Side()))), uint32(rng.Intn(int(u.Side()))))
		}
		// Three flushed runs with deletions in between (tombstones shadow
		// older runs), then a resident memtable with more puts and deletes.
		for round := 0; round < 4; round++ {
			for i := 0; i < 150; i++ {
				r := Record{Point: pool[rng.Intn(len(pool))], Payload: uint64(round*1000 + i)}
				if err := d.Put(ctx, r); err != nil {
					t.Fatal(err)
				}
				m.put(r)
			}
			for i := 0; i < 20; i++ {
				r := m.recs[rng.Intn(len(m.recs))]
				if err := d.Delete(ctx, r); err != nil {
					t.Fatal(err)
				}
				m.delete(r)
			}
			if round < 3 {
				if err := d.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := d.Runs(); got != 3 {
			t.Fatalf("runs = %d, want 3", got)
		}
		rq := rand.New(rand.NewSource(lossSeed + 99))
		degraded := 0
		for q := 0; q < 10; q++ {
			ivs := query.DecomposeBox(h, testBox(rq, u))
			want := m.scan(d, ivs)
			if !want.Complete() {
				degraded++
			}
			batch := 1 + rq.Intn(64)
			label := fmt.Sprintf("seed %d box %d batch %d", lossSeed, q, batch)
			for _, opts := range [][]ScanOption{nil, {ScanBatchSize(batch)}} {
				got, err := d.Scan(ctx, ivs, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, label+" Scan", got, want)
			}
			for pass := 0; pass < 2; pass++ {
				cur, err := d.ScanCursor(ivs, ScanBatchSize(batch))
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s cursor pass %d", label, pass), drainCursor(t, ctx, cur, h), want)
			}
		}
		if (degraded > 0) != (lossSeed != 0) {
			t.Fatalf("seed %d: %d of 10 boxes degraded", lossSeed, degraded)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ScanCursor(nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("ScanCursor on closed store: %v, want ErrClosed", err)
		}
		if _, err := d.Scan(ctx, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Scan on closed store: %v, want ErrClosed", err)
		}
	}
}

// TestDurableCompactRefusesDarkPage: compaction never runs degraded. A
// degraded merge would write a run without the dark page's records and
// unlink the only files that hold them; instead Compact fails with
// ErrPageUnavailable, names the run, and leaves store and directory as
// they were — now and after a reopen.
func TestDurableCompactRefusesDarkPage(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	dir := t.TempDir()
	darkRun := wal.RunFileName(3) // the second flush's
	wrap := func(dev PageDevice) (PageDevice, error) {
		dead := map[int]bool{}
		if filepath.Base(dev.(*FileDevice).Path()) == darkRun {
			dead[1] = true
		}
		return &blackoutDevice{PageDevice: dev, dead: dead}, nil
	}
	opts := []DurableOption{WithDurablePageSize(4), WithAutoCompact(false), WithRunWrapper(wrap)}
	d, err := OpenDurable(dir, h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := &durableModel{c: h}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ { // three runs and a resident memtable
		for i := 0; i < 30; i++ {
			r := durableRec(u, rng, uint64(round*100+i))
			if err := d.Put(ctx, r); err != nil {
				t.Fatal(err)
			}
			m.put(r)
		}
		r := m.recs[rng.Intn(len(m.recs))]
		if err := d.Delete(ctx, r); err != nil {
			t.Fatal(err)
		}
		m.delete(r)
		if round < 3 {
			if err := d.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	type state struct {
		runs     int
		files    []string
		manifest []byte
		scan     ScanResult
	}
	observe := func(d *Durable) state {
		t.Helper()
		s := state{runs: d.Runs()}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			s.files = append(s.files, fmt.Sprintf("%s %d", e.Name(), info.Size()))
		}
		if s.manifest, err = os.ReadFile(filepath.Join(dir, wal.ManifestName)); err != nil {
			t.Fatal(err)
		}
		if s.scan, err = d.Scan(ctx, wholeUniverse(u)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := observe(d)
	if before.runs != 3 || d.runs[1].name != darkRun || before.scan.Complete() {
		t.Fatalf("setup: %d runs, second %s, scan complete=%v", before.runs, d.runs[1].name, before.scan.Complete())
	}
	sameResult(t, "degraded scan before compaction", before.scan, m.scan(d, wholeUniverse(u)))
	for attempt := 0; attempt < 2; attempt++ { // a refused compaction leaves the next one free to try
		err := d.Compact(ctx)
		if !errors.Is(err, ErrPageUnavailable) || !strings.Contains(err.Error(), "compacting") || !strings.Contains(err.Error(), darkRun) {
			t.Fatalf("Compact over a dark page: %v, want ErrPageUnavailable from compacting %s", err, darkRun)
		}
	}
	if got := d.Metrics().Counter("durable.compactions").Value(); got != 0 {
		t.Fatalf("durable.compactions = %d after refused compactions", got)
	}
	if after := observe(d); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused compaction changed the store:\n got %+v\nwant %+v", after, before)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if reopened := observe(d2); !reflect.DeepEqual(reopened, before) {
		t.Fatalf("reopen after a refused compaction:\n got %+v\nwant %+v", reopened, before)
	}
}
