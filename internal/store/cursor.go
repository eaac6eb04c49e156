package store

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/query"
)

// DefaultScanBatch is the record count a cursor targets per batch when
// ScanBatchSize is not given. It matches the wire protocol's default batch
// size so a streaming server fills frames without re-chunking.
const DefaultScanBatch = 4096

// Batch is one increment of a cursor scan. The batches are a partition of
// the ScanResult, not an approximation of it: Collect over the drained
// cursor is what Scan returns.
//
// Ownership: Records, Keys and Dark alias buffers the cursor took from a
// process-wide free list when it was opened and gives back in Close, after
// which another request's cursor fills them. A batch is therefore valid
// only until the next Next or Close call on its cursor, and a consumer
// that needs it longer copies it first.
type Batch struct {
	// Records holds the next run of readable records in scan order
	// (ascending curve key, duplicate keys in store order). The slice, like
	// Keys and Dark, aliases cursor-owned buffers and is valid only until
	// the next Next or Close call.
	Records []Record
	// Keys holds the curve key of each record, aligned with Records, so
	// consumers can merge streams without re-deriving keys from points.
	Keys []uint64
	// Dark lists the key spans newly discovered unavailable during this
	// batch, clipped to the scanned intervals. Spans are deltas: they may
	// abut or overlap spans from earlier batches, and a Durable cursor may
	// deliver them out of order across runs — callers accumulate the union
	// and query.MergeIntervals it, which equals ScanResult.Unavailable once
	// the cursor is drained.
	Dark []query.Interval
	// Watermark is a strict upper bound on this batch and a lower bound on
	// everything still to come: every key in this batch is < Watermark, and
	// every future record key and future Dark span's Lo is >= Watermark.
	// A batch that exhausts the scan carries math.MaxUint64 (though a
	// cursor that only discovers exhaustion afterwards may return io.EOF
	// directly after a finite-watermark batch). Mergers use it to prove a
	// candidate record can no longer be contradicted by an unseen dark
	// span.
	Watermark uint64
	// PagesRead counts the distinct leaf pages first touched during this
	// Next call, dark ones included. Summed over all batches it equals
	// ScanResult.PagesRead.
	PagesRead int
}

// BatchCursor iterates a scan incrementally, page-at-a-time, so upper
// layers can start shipping early batches while later intervals are still
// unread. Cursors are single-goroutine objects; the context is passed per
// Next call so one cursor can serve several request phases.
type BatchCursor interface {
	// Next returns the next batch, or io.EOF after the last one.
	// Cancellation and deadline are honored between leaf page reads, like
	// Scan; under ScanStrict the first page that stays unavailable fails
	// the cursor with an error wrapping ErrPageUnavailable. Any non-nil
	// error (io.EOF included) is sticky: the cursor is exhausted and
	// further calls return the same error.
	Next(ctx context.Context) (Batch, error)
	// Close hands the cursor's buffers back to the free list. It is
	// idempotent and safe to call at any point; a half-drained cursor must
	// still be closed, and no batch may be read afterwards.
	Close()
}

// scanBuf is the backing of one cursor's output batches. Cursors take one
// from scanBufs when they open and release it in Close — nowhere else, so a
// buffer is never reachable from two cursors — which carries the
// within-request reuse of these slices across requests: a warm process
// opens, drains and closes a cursor without allocating for records.
type scanBuf struct {
	recs []Record
	keys []uint64
	dark []query.Interval
	// used is how far recs has ever been filled since the buffer left the
	// free list: recs[used:cap] is still zero.
	used int
}

// maxPooledScanRecords caps the capacity of a record buffer the free list
// keeps. A batch overshoots its target by at most a page plus a held-back
// duplicate-key run, so ordinary buffers fit; one grown past the cap by a
// huge ScanBatchSize or a pathological run is left to the collector.
const maxPooledScanRecords = 4 * DefaultScanBatch

var scanBufs = sync.Pool{New: func() any { return new(scanBuf) }}

// rewind empties the buffer for the next batch, remembering how far the
// record slice was filled (appends only ever grow it between rewinds).
func (b *scanBuf) rewind() {
	b.used = max(b.used, len(b.recs))
	b.recs, b.keys, b.dark = b.recs[:0], b.keys[:0], b.dark[:0]
}

// release returns the buffer to the free list. Records carry a pointer
// (Point) into the page they were read from, so the used prefix is zeroed
// first: a pooled buffer must not pin a file-backed page.
func (b *scanBuf) release() {
	b.rewind()
	if cap(b.recs) > maxPooledScanRecords {
		return
	}
	clear(b.recs[:b.used])
	b.used = 0
	scanBufs.Put(b)
}

// validateScanIntervals checks the sorted-disjoint precondition the cursor
// watermark logic relies on. Every scan is a cursor, so every scan enforces
// it: a violation would silently break the dark tiling and downstream
// merges.
func validateScanIntervals(ivs []query.Interval) error {
	for i, iv := range ivs {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("store: cursor interval %d inverted [%d, %d)", i, iv.Lo, iv.Hi)
		}
		if i > 0 && iv.Lo < ivs[i-1].Hi {
			return fmt.Errorf("store: cursor intervals not sorted and disjoint at %d", i)
		}
	}
	return nil
}

// ScanCursor opens an incremental scan over the given sorted, disjoint
// curve intervals — the store's one scan implementation; Scan is this
// cursor drained by Collect. It is incremental so the service layer can
// stream batches onto the wire while later intervals are still being read,
// bounding per-request memory by the batch size instead of the result
// size.
//
// The cursor retains ivs; the caller must not mutate it until Close.
func (st *Store) ScanCursor(ivs []query.Interval, opts ...ScanOption) (BatchCursor, error) {
	cfg := scanConfig{batch: DefaultScanBatch}
	for _, opt := range opts {
		if opt != nil {
			opt.applyScan(&cfg)
		}
	}
	if err := validateScanIntervals(ivs); err != nil {
		return nil, err
	}
	return &storeCursor{st: st, cfg: cfg, ivs: ivs, curID: -1, out: scanBufs.Get().(*scanBuf)}, nil
}

// storeCursor walks intervals in order and pages within each interval in
// order, which makes the page sequence globally non-decreasing — one
// memoized current page is all the caching a scan needs, and a page shared
// by the tail of one interval and the head of the next is fetched (and
// counted) once.
//
// Answering in one pass hinges on two facts:
//
//   - A record on a readable page can be retroactively darkened only by a
//     failed page that shares its key across the page boundary (a record
//     whose key lands in a dark span is withheld). Such a key
//     is by construction the first key of the next page, so the cursor
//     holds back exactly the records with key >= the next page's first key
//     until that page's fate is known, and drops held records a new dark
//     span covers. Records go straight from the page into the output
//     buffer; the held ones are simply its last `held` entries, left out of
//     the batch handed to the caller and moved to the front by the next
//     call.
//   - Dark spans are discovered in ascending Lo order (pages ascend, spans
//     are clipped per interval, intervals ascend), so merging each new
//     span into the tail of the accumulated list is equivalent to
//     query.MergeIntervals over the whole set.
type storeCursor struct {
	st  *Store
	cfg scanConfig
	ivs []query.Interval

	ivIdx int  // current interval; len(ivs) when exhausted
	open  bool // slot range of ivs[ivIdx] has been located
	page  int  // next page to visit inside the open interval
	last  int  // last page of the open interval
	lo    int  // slot range [lo, hi) of the open interval
	hi    int

	curID     int // memoized current page (ids arrive non-decreasing)
	curPg     Page
	curErr    error
	pagesThis int // distinct pages first fetched during this Next

	dark []query.Interval // merged dark union so far (sorted, disjoint)

	// out is the output buffer, reused across Next calls and recycled
	// across cursors; nil once closed. Its last held records are the
	// boundary holdback: collected from the open interval, fate not yet
	// settled.
	out  *scanBuf
	held int

	done bool
	err  error
}

func (c *storeCursor) Next(ctx context.Context) (Batch, error) {
	if c.err != nil {
		return Batch{}, c.err
	}
	if c.done {
		return Batch{}, io.EOF
	}
	out := c.out
	// The previous batch is dead: keep only the held-back tail, moved to
	// the front.
	settled := len(out.recs) - c.held
	tailRecs, tailKeys := out.recs[settled:], out.keys[settled:]
	out.rewind()
	out.recs = append(out.recs, tailRecs...)
	out.keys = append(out.keys, tailKeys...)
	c.pagesThis = 0
	for len(out.recs)-c.held < c.cfg.batch {
		if !c.open {
			if c.ivIdx >= len(c.ivs) {
				c.done = true
				break
			}
			iv := c.ivs[c.ivIdx]
			lo := c.st.descend(iv.Lo)
			hi := lo + sort.Search(len(c.st.keys)-lo, func(i int) bool { return c.st.keys[lo+i] >= iv.Hi })
			if lo == hi {
				c.ivIdx++
				continue
			}
			c.lo, c.hi = lo, hi
			c.page = lo / c.st.pageSize
			c.last = (hi - 1) / c.st.pageSize
			c.open = true
		}
		if err := ctx.Err(); err != nil {
			return c.fail(err)
		}
		iv := c.ivs[c.ivIdx]
		pg, pgErr := c.getPage(c.page)
		if pgErr != nil {
			if c.cfg.strict {
				return c.fail(pgErr)
			}
			ks := c.st.pageKeySpan(c.page)
			if ks.Lo < iv.Lo {
				ks.Lo = iv.Lo
			}
			if ks.Hi > iv.Hi {
				ks.Hi = iv.Hi
			}
			if ks.Lo < ks.Hi {
				out.dark = append(out.dark, ks)
				c.addDark(ks)
				c.dropHeld()
			}
		} else {
			base := c.page * c.st.pageSize
			a := max(base, c.lo)
			b := min(base+c.st.pageSize, c.hi)
			if len(c.dark) == 0 {
				// The healthy store: nothing can be dark, so the page's
				// slice of the interval is copied as a block.
				out.recs = append(out.recs, pg.Records[a-base:b-base]...)
				out.keys = append(out.keys, c.st.keys[a:b]...)
			} else {
				for i := a; i < b; i++ {
					k := c.st.keys[i]
					if query.IntervalsContain(c.dark, k) {
						continue
					}
					out.recs = append(out.recs, pg.Records[i-base])
					out.keys = append(out.keys, k)
				}
			}
		}
		if c.page == c.last {
			c.held = 0
			c.open = false
			c.ivIdx++
		} else {
			c.page++
			c.hold(c.st.keys[c.page*c.st.pageSize])
		}
	}
	wm := uint64(math.MaxUint64)
	switch {
	case c.open:
		// Stopped at a page boundary mid-interval: everything emitted is
		// below the next page's first key, everything still to come (held
		// records included) is at or above it.
		wm = c.st.keys[c.page*c.st.pageSize]
	case c.ivIdx < len(c.ivs):
		wm = c.ivs[c.ivIdx].Lo
	}
	settled = len(out.recs) - c.held
	if c.done && settled == 0 && len(out.dark) == 0 && c.pagesThis == 0 {
		return Batch{}, io.EOF
	}
	// Capacity stops at the held tail, so an append to the batch cannot
	// reach it.
	return Batch{
		Records:   out.recs[:settled:settled],
		Keys:      out.keys[:settled:settled],
		Dark:      out.dark,
		Watermark: wm,
		PagesRead: c.pagesThis,
	}, nil
}

func (c *storeCursor) Close() {
	c.done = true
	if c.out != nil {
		c.out.release()
		c.out = nil
	}
}

func (c *storeCursor) fail(err error) (Batch, error) {
	c.err = err
	return Batch{}, err
}

// getPage charges one leaf read per distinct page — the classic cost
// model, whatever the physical retries — and memoizes fetch errors too, so
// a page shared by two intervals is neither re-fetched nor re-counted.
func (c *storeCursor) getPage(id int) (Page, error) {
	if id == c.curID {
		return c.curPg, c.curErr
	}
	c.curID = id
	c.pagesThis++
	c.st.stats.leafReads.Add(1)
	c.curPg, c.curErr = c.st.fetchPage(id)
	return c.curPg, c.curErr
}

// addDark folds a newly discovered span into the merged union. Spans
// arrive in ascending Lo order, so only the tail can overlap.
func (c *storeCursor) addDark(ks query.Interval) {
	if n := len(c.dark); n > 0 && ks.Lo <= c.dark[n-1].Hi {
		if ks.Hi > c.dark[n-1].Hi {
			c.dark[n-1].Hi = ks.Hi
		}
		return
	}
	c.dark = append(c.dark, ks)
}

// dropHeld discards the held records when the page they were held for
// fails — the page-boundary duplicate-key case where a readable page's
// records go dark because the rest of their key's run was lost. All of them
// go: a held record's key is the failed page's first key (nothing read
// before that page is above it, and hold kept only what is not below it),
// and that key lies in the page's dark span.
func (c *storeCursor) dropHeld() {
	out := c.out
	keep := len(out.recs) - c.held
	clear(out.recs[keep:]) // rewind measures use by length; leave nothing beyond it
	out.recs, out.keys = out.recs[:keep], out.keys[:keep]
	c.held = 0
}

// hold settles the output at a page boundary inside an interval: records
// below thr, the next page's first key, can no longer change; those at thr
// — always a suffix, the output is in key order — stay held, because that
// page failing would darken them.
func (c *storeCursor) hold(thr uint64) {
	keys := c.out.keys
	n := len(keys)
	c.held = 0
	if n > 0 && keys[n-1] >= thr {
		c.held = n - sort.Search(n, func(i int) bool { return keys[i] >= thr })
	}
}
