package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/wal"
)

// ScanCursor opens an incremental scan over the merged store: a k-way
// merge of one cursor per run (oldest first) plus the memtable, newest
// shadowing oldest through tombstones. Records come in ascending key order,
// stable on key ties (oldest run first, memtable puts last); a key inside
// the merged dark tiling of the runs is withheld even when some run could
// serve it; PagesRead sums over the runs.
//
// The snapshot is taken at open: writes landing after ScanCursor returns
// are not observed. The cursor stays valid across concurrent flushes and
// compactions (replaced run devices are retired, not closed), but must be
// closed before the store itself is closed.
func (d *Durable) ScanCursor(ivs []query.Interval, opts ...ScanOption) (BatchCursor, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	snapshot := d.runs[:len(d.runs):len(d.runs)]
	puts, tombs := d.mem.Sorted()
	d.mu.Unlock()
	return openMerge(snapshot, puts, tombs, ivs, opts...)
}

// openMerge opens the merge over the given runs (oldest first) and, as the
// newest source, a memtable's sorted puts and tombstones — none when
// compaction merges the runs alone.
func openMerge(runs []*durableRun, puts, tombs []wal.Entry, ivs []query.Interval, opts ...ScanOption) (BatchCursor, error) {
	cfg := scanConfig{batch: DefaultScanBatch}
	for _, opt := range opts {
		if opt != nil {
			opt.applyScan(&cfg)
		}
	}
	if err := validateScanIntervals(ivs); err != nil {
		return nil, err
	}
	c := &durableCursor{
		batch: cfg.batch,
		srcs:  make([]durableSource, 0, len(runs)+1),
		out:   scanBufs.Get().(*scanBuf),
	}
	for _, r := range runs {
		cur, err := r.st.ScanCursor(ivs, opts...)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.srcs = append(c.srcs, durableSource{name: r.name, cur: cur, dead: tombSet(r.tombKeys, r.tombs)})
	}
	// The memtable is the newest source: fully resident, so it arrives as
	// one pre-filtered buffered batch. Its tombstones shadow every run but
	// not its own puts (a put sequenced after a delete survives it).
	mem := durableSource{done: true, wm: math.MaxUint64}
	for _, e := range puts {
		if query.IntervalsContain(ivs, e.Key) {
			mem.keys = append(mem.keys, e.Key)
			mem.recs = append(mem.recs, Record{Point: grid.Point(e.Point).Clone(), Payload: e.Payload})
		}
	}
	if len(tombs) > 0 {
		tombKeys := make([]uint64, len(tombs))
		tombRecs := make([]Record, len(tombs))
		for i, e := range tombs {
			tombKeys[i], tombRecs[i] = e.Key, Record{Payload: e.Payload}
		}
		mem.dead = tombSet(tombKeys, tombRecs)
	}
	c.srcs = append(c.srcs, mem)
	return c, nil
}

// tombSet builds the (key, payload) identity set of one source's
// tombstones. Key equality implies point equality (the curve is a
// bijection), so (key, payload) is the full record identity.
func tombSet(tombKeys []uint64, tombs []Record) map[[2]uint64]bool {
	if len(tombs) == 0 {
		return nil
	}
	dead := make(map[[2]uint64]bool, len(tombs))
	for i, tk := range tombKeys {
		dead[[2]uint64{tk, tombs[i].Payload}] = true
	}
	return dead
}

// durableSource is one leg of the merge: a run's cursor (or the resident
// memtable), its currently buffered batch, and the shadowing state it
// contributes.
type durableSource struct {
	name string      // run file name; empty for the memtable leg
	cur  BatchCursor // nil for the memtable leg
	recs []Record    // buffered batch (aliases cur's buffers)
	keys []uint64
	pos  int
	wm   uint64 // watermark of the buffered batch; MaxUint64 once done
	done bool
	dead map[[2]uint64]bool // tombstones shadowing every older source
	dark []query.Interval   // merged dark union this source has delivered
}

// addDark folds one delta into the source's union; deltas from a single
// cursor arrive in ascending Lo order (see storeCursor.addDark).
func (s *durableSource) addDark(ks query.Interval) {
	if n := len(s.dark); n > 0 && ks.Lo <= s.dark[n-1].Hi {
		if ks.Hi > s.dark[n-1].Hi {
			s.dark[n-1].Hi = ks.Hi
		}
		return
	}
	s.dark = append(s.dark, ks)
}

// durableCursor merges the sources by (curve key, source index). A
// candidate may be emitted only once every source's frontier has passed
// its key, which the per-source refill guarantees: when the candidate is
// source i's head, every other buffered source's head is >= it (heads are
// below their own watermarks), and every drained source's watermark
// exceeds it — so no unseen dark span or smaller-keyed record can arrive
// later, and the dark union accumulated so far is final for that key.
type durableCursor struct {
	srcs  []durableSource
	batch int

	pagesThis int

	out *scanBuf // output buffer, recycled like storeCursor's; nil once closed

	done bool
	err  error
}

func (c *durableCursor) Next(ctx context.Context) (Batch, error) {
	if c.err != nil {
		return Batch{}, c.err
	}
	if c.done {
		return Batch{}, io.EOF
	}
	out := c.out
	out.rewind()
	c.pagesThis = 0
	var lastKey uint64
	haveLast := false
	for {
		// Refill every drained source (a cursor may yield record-free
		// batches while crossing dark pages — keep pulling), then pick the
		// smallest (head key, source index).
		pick := -1
		var pk uint64
		for i := range c.srcs {
			s := &c.srcs[i]
			for !s.done && s.pos >= len(s.recs) {
				b, err := s.cur.Next(ctx)
				if err == io.EOF {
					s.done = true
					s.wm = math.MaxUint64
					break
				}
				if err != nil {
					if errors.Is(err, ErrPageUnavailable) {
						// Only a strict run cursor fails on a page; say whose.
						err = fmt.Errorf("store: run %s: %w", s.name, err)
					}
					return c.fail(err)
				}
				s.recs, s.keys, s.pos, s.wm = b.Records, b.Keys, 0, b.Watermark
				c.pagesThis += b.PagesRead
				for _, ks := range b.Dark {
					out.dark = append(out.dark, ks)
					s.addDark(ks)
				}
			}
			if s.pos < len(s.recs) {
				if k := s.keys[s.pos]; pick < 0 || k < pk {
					pick, pk = i, k
				}
			}
		}
		if pick < 0 {
			c.done = true
			break
		}
		// A full batch still consumes candidates tied with the last
		// emitted key: leaving one buffered would drag the frontier — the
		// batch watermark — down to a key the batch already contains.
		if len(out.recs) >= c.batch && (!haveLast || pk != lastKey) {
			break
		}
		s := &c.srcs[pick]
		rec := s.recs[s.pos]
		s.pos++
		if c.darkContains(pk) || c.shadowed(pick, pk, rec.Payload) {
			continue
		}
		out.recs = append(out.recs, rec)
		out.keys = append(out.keys, pk)
		lastKey, haveLast = pk, true
	}
	wm := uint64(math.MaxUint64)
	if !c.done {
		// The merge frontier: the smallest thing any source can still
		// produce — a buffered head, or a drained-buffer source's
		// watermark.
		for i := range c.srcs {
			s := &c.srcs[i]
			f := s.wm
			if s.pos < len(s.recs) {
				f = s.keys[s.pos]
			}
			if f < wm {
				wm = f
			}
		}
	}
	if c.done && len(out.recs) == 0 && len(out.dark) == 0 && c.pagesThis == 0 {
		return Batch{}, io.EOF
	}
	return Batch{
		Records:   out.recs,
		Keys:      out.keys,
		Dark:      out.dark,
		Watermark: wm,
		PagesRead: c.pagesThis,
	}, nil
}

// Close closes the run cursors before releasing the merge's own buffer:
// every durableSource.recs aliases its child's buffer, so the sources are
// dropped with the children and nothing of this cursor can reach a buffer
// that has gone back to the free list.
func (c *durableCursor) Close() {
	c.done = true
	for i := range c.srcs {
		if c.srcs[i].cur != nil {
			c.srcs[i].cur.Close()
		}
	}
	c.srcs = nil
	if c.out != nil {
		c.out.release()
		c.out = nil
	}
}

func (c *durableCursor) fail(err error) (Batch, error) {
	c.err = err
	return Batch{}, err
}

// darkContains reports whether any source has declared key dark. The
// per-key finality argument in the type comment makes the answer at
// emission time equal to the answer against the fully merged tiling.
func (c *durableCursor) darkContains(key uint64) bool {
	for i := range c.srcs {
		if query.IntervalsContain(c.srcs[i].dark, key) {
			return true
		}
	}
	return false
}

// shadowed reports whether a newer source carries a tombstone for the
// candidate — source order is oldest run to newest run, then the
// memtable, so "newer" is any higher index.
func (c *durableCursor) shadowed(src int, key, payload uint64) bool {
	for i := src + 1; i < len(c.srcs); i++ {
		if c.srcs[i].dead[[2]uint64{key, payload}] {
			return true
		}
	}
	return false
}
