// Package store implements the paper's secondary-memory application
// (Faloutsos [9, 10]; Jagadish [14] in the related work): a paged,
// bulk-loaded B+-tree over SFC keys with explicit page-I/O accounting.
//
// Multi-dimensional records are mapped to one-dimensional keys by a space
// filling curve and stored in fixed-capacity leaf pages in key order. A box
// query decomposes into curve intervals (query package); each interval is
// answered by a root-to-leaf descent plus a leaf scan. The number of
// *distinct pages read* is the disk cost — and it is governed by exactly
// the locality properties the paper studies: fragmented decompositions
// (many intervals → many descents) and stretched neighborhoods (related
// records scattered across pages) both inflate it.
//
// Leaf pages are fetched through a pluggable PageDevice. The default device
// is infallible RAM; installing a fallible device (see internal/faultio)
// turns on per-page checksum verification and bounded retry with
// exponential backoff, and Scan (like ScanCursor) answers queries even when
// pages stay dark — returning the records it could read plus the exact
// curve intervals it could not serve. On a proximity-preserving curve a
// lost page owns a contiguous curve segment, so that report stays short;
// its size is itself a locality metric.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
)

// ErrPageUnavailable is the sentinel wrapped by every error reporting a leaf
// page that stayed unreadable after the retry budget; test with errors.Is.
var ErrPageUnavailable = errors.New("store: page unavailable")

// Record is a stored multi-dimensional point with an application payload.
type Record struct {
	Point   grid.Point
	Payload uint64
}

// Stats counts simulated I/O. LeafReads and InnerReads count *logical* page
// fetches (one per distinct page per operation, as in the classic cost
// model); the remaining fields account for the physical device traffic
// behind them, which diverges from the logical counts only under faults.
type Stats struct {
	LeafReads  int // leaf pages fetched
	InnerReads int // inner (index) pages fetched
	Descents   int // root-to-leaf searches performed

	DeviceReads      int           // physical ReadPage attempts, incl. retries
	Retries          int           // failed attempts that were retried
	ChecksumFailures int           // reads rejected by the per-page checksum
	PagesUnavailable int           // fetches abandoned after the retry budget
	Backoff          time.Duration // simulated retry backoff accrued
}

// Total returns total logical page reads.
func (s Stats) Total() int { return s.LeafReads + s.InnerReads }

// counters is the store's live accounting. Every field is atomic so that
// concurrent queries against one store — the normal mode under the service
// layer — accumulate without tearing, and Stats()/ResetStats are safe to
// call while queries are in flight.
type counters struct {
	leafReads        atomic.Int64
	innerReads       atomic.Int64
	descents         atomic.Int64
	deviceReads      atomic.Int64
	retries          atomic.Int64
	checksumFailures atomic.Int64
	pagesUnavailable atomic.Int64
	backoff          atomic.Int64 // nanoseconds
}

// snapshot reads each counter once. Concurrent writers may land between
// loads, so a snapshot taken mid-query is approximate; one taken while the
// store is quiescent is exact.
func (c *counters) snapshot() Stats {
	return Stats{
		LeafReads:        int(c.leafReads.Load()),
		InnerReads:       int(c.innerReads.Load()),
		Descents:         int(c.descents.Load()),
		DeviceReads:      int(c.deviceReads.Load()),
		Retries:          int(c.retries.Load()),
		ChecksumFailures: int(c.checksumFailures.Load()),
		PagesUnavailable: int(c.pagesUnavailable.Load()),
		Backoff:          time.Duration(c.backoff.Load()),
	}
}

func (c *counters) reset() {
	c.leafReads.Store(0)
	c.innerReads.Store(0)
	c.descents.Store(0)
	c.deviceReads.Store(0)
	c.retries.Store(0)
	c.checksumFailures.Store(0)
	c.pagesUnavailable.Store(0)
	c.backoff.Store(0)
}

// Store is a bulk-loaded, read-only B+-tree over curve keys.
type Store struct {
	c        curve.Curve
	pageSize int

	// Leaves: records sorted by key, chopped into pages of pageSize. The
	// key column doubles as the in-RAM leaf index; record *content* is only
	// reachable through the device.
	keys    []uint64 // one per record, sorted
	records []Record // aligned with keys; backs the default MemDevice

	// Inner levels, bottom-up: level[l][i] is the smallest key of node i's
	// subtree at level l; fanout children per node. level 0 indexes leaves.
	levels [][]uint64
	fanout int

	device PageDevice
	mem    *MemDevice // the trusted default device
	sums   []uint64   // per-page checksums, computed at bulkload
	verify bool       // verify checksums (on iff a non-default device is set)
	retry  RetryPolicy

	stats counters
}

// Bulkload builds a store over the records through the given curve. The
// input is not retained; records may share cells. Geometry, device and retry
// policy are set by functional options (WithPageSize, WithFanout,
// WithDevice, WithDeviceWrapper, WithRetryPolicy).
func Bulkload(c curve.Curve, recs []Record, opts ...Option) (*Store, error) {
	cfg := buildConfig{pageSize: 64, fanout: 64}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt.apply(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.pageSize < 2 || cfg.fanout < 2 {
		return nil, fmt.Errorf("store: page size %d / fanout %d too small", cfg.pageSize, cfg.fanout)
	}
	u := c.Universe()
	st := &Store{
		c:        c,
		pageSize: cfg.pageSize,
		fanout:   cfg.fanout,
		keys:     make([]uint64, len(recs)),
		records:  make([]Record, len(recs)),
		retry:    RetryPolicy{}.withDefaults(),
	}
	order := make([]int, len(recs))
	tmp := make([]uint64, len(recs))
	for i, r := range recs {
		if !u.Contains(r.Point) {
			return nil, fmt.Errorf("store: record %d at %v outside %v", i, r.Point, u)
		}
		tmp[i] = c.Index(r.Point)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tmp[order[a]] < tmp[order[b]] })
	for slot, i := range order {
		st.keys[slot] = tmp[i]
		st.records[slot] = Record{Point: recs[i].Point.Clone(), Payload: recs[i].Payload}
	}
	st.levels = buildLevels(st.keys, cfg.pageSize, cfg.fanout)
	numLeaves := (len(recs) + cfg.pageSize - 1) / cfg.pageSize
	st.mem = &MemDevice{pageSize: cfg.pageSize, keys: st.keys, records: st.records}
	st.device = st.mem
	st.sums = make([]uint64, numLeaves)
	for id := range st.sums {
		pg, _ := st.mem.ReadPage(id)
		st.sums[id] = pageChecksum(pg)
	}
	if cfg.retry != nil {
		if err := st.setRetryPolicy(*cfg.retry); err != nil {
			return nil, err
		}
	}
	if cfg.device != nil {
		if err := st.setDevice(cfg.device); err != nil {
			return nil, err
		}
	}
	if cfg.wrap != nil {
		dev, err := cfg.wrap(st.device)
		if err != nil {
			return nil, fmt.Errorf("store: device wrapper: %w", err)
		}
		if err := st.setDevice(dev); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// buildLevels constructs the inner index levels over a sorted key column:
// level 0 holds the first key of each leaf page, and each further level
// holds the first key of each fanout-sized group below, up to a single root.
func buildLevels(keys []uint64, pageSize, fanout int) [][]uint64 {
	var levels [][]uint64
	numLeaves := (len(keys) + pageSize - 1) / pageSize
	cur := make([]uint64, numLeaves)
	for i := range cur {
		cur[i] = keys[i*pageSize]
	}
	for len(cur) > 1 {
		levels = append(levels, cur)
		next := make([]uint64, (len(cur)+fanout-1)/fanout)
		for i := range next {
			next[i] = cur[i*fanout]
		}
		cur = next
	}
	if len(cur) == 1 {
		levels = append(levels, cur)
	}
	return levels
}

// Len returns the number of stored records. The key column is authoritative:
// stores opened from disk keep keys in RAM but leave record content on the
// device.
func (st *Store) Len() int { return len(st.keys) }

// Height returns the number of inner levels (0 for an empty store).
func (st *Store) Height() int { return len(st.levels) }

// PageSize returns the leaf page capacity in records.
func (st *Store) PageSize() int { return st.pageSize }

// NumPages returns the number of leaf pages.
func (st *Store) NumPages() int { return len(st.sums) }

// Stats returns a snapshot of the accumulated I/O counters. It is safe to
// call concurrently with queries; a snapshot taken mid-query is approximate.
func (st *Store) Stats() Stats { return st.stats.snapshot() }

// ResetStats clears the I/O counters. It is safe to call concurrently with
// queries (each counter is zeroed atomically).
func (st *Store) ResetStats() { st.stats.reset() }

// Device returns the page device leaf reads currently go through.
func (st *Store) Device() PageDevice { return st.device }

// DefaultDevice returns the trusted in-memory device built at bulkload, so
// a fallible device installed with WithDevice can be removed
// again.
func (st *Store) DefaultDevice() PageDevice { return st.mem }

// setDevice routes leaf reads through dev. Installing any device other than
// DefaultDevice() turns on checksum verification: every page fetched is
// checked against the bulkload-time checksum and rejected (and retried) on
// mismatch, so bit corruption on the I/O path can never surface silently.
func (st *Store) setDevice(dev PageDevice) error {
	if dev == nil {
		return errors.New("store: nil device")
	}
	if dev.NumPages() != st.NumPages() {
		return fmt.Errorf("store: device holds %d pages, store has %d", dev.NumPages(), st.NumPages())
	}
	st.device = dev
	st.verify = dev != PageDevice(st.mem)
	return nil
}

// setRetryPolicy replaces the retry policy used for fallible devices.
// Zero fields take their defaults.
func (st *Store) setRetryPolicy(rp RetryPolicy) error {
	rp = rp.withDefaults()
	if rp.MaxAttempts < 1 {
		return fmt.Errorf("store: retry MaxAttempts %d < 1", rp.MaxAttempts)
	}
	st.retry = rp
	return nil
}

// fetchPage reads one leaf page through the device, retrying transient
// failures and checksum rejections up to the retry budget with simulated
// exponential backoff. Errors wrapping ErrPermanent short-circuit the loop.
func (st *Store) fetchPage(id int) (Page, error) {
	var lastErr error
	for attempt := 1; attempt <= st.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			st.stats.retries.Add(1)
			st.stats.backoff.Add(int64(st.retry.backoff(id, attempt-1)))
		}
		st.stats.deviceReads.Add(1)
		pg, err := st.device.ReadPage(id)
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrPermanent) {
				break
			}
			continue
		}
		if st.verify && pageChecksum(pg) != st.sums[id] {
			st.stats.checksumFailures.Add(1)
			lastErr = fmt.Errorf("store: checksum mismatch on page %d", id)
			continue
		}
		return pg, nil
	}
	st.stats.pagesUnavailable.Add(1)
	return Page{}, fmt.Errorf("%w: page %d: %w", ErrPageUnavailable, id, lastErr)
}

// descend simulates a root-to-leaf search for key, charging one inner read
// per level, and returns the index of the first record with key >= target.
func (st *Store) descend(target uint64) int {
	st.stats.descents.Add(1)
	// Walk levels top-down; each is one page read. (Node-granular charging
	// is a refinement; level-granular matches the classic analysis where
	// fanout is large and the path touches one node per level.)
	st.stats.innerReads.Add(int64(len(st.levels)))
	return sort.Search(len(st.keys), func(i int) bool { return st.keys[i] >= target })
}

// BoxQuery answers the box query in degraded mode and returns just the
// records. With the default in-memory device reads cannot fail; with a
// fallible device, records on dark pages are omitted — callers that need
// to know *which* curve intervals went dark use ScanBox.
func (st *Store) BoxQuery(b query.Box) []Record {
	res, _ := st.ScanBox(context.Background(), b)
	return res.Records
}

// pageKeySpan returns the half-open curve-key range [first, last+1] covered
// by the records of the given page.
func (st *Store) pageKeySpan(page int) query.Interval {
	lo := page * st.pageSize
	hi := lo + st.pageSize
	if hi > len(st.keys) {
		hi = len(st.keys)
	}
	return query.Interval{Lo: st.keys[lo], Hi: st.keys[hi-1] + 1}
}

// PointQuery returns the records stored exactly at p, charging one descent
// and one leaf read per distinct page holding matches (or one read for a
// miss — the page that would hold the key is still fetched). With a
// fallible device, records on unavailable pages are omitted and show up in
// Stats.PagesUnavailable.
func (st *Store) PointQuery(p grid.Point) []Record {
	target := st.c.Index(p)
	lo := st.descend(target)
	if len(st.keys) == 0 {
		return nil
	}
	hi := lo
	for hi < len(st.keys) && st.keys[hi] == target {
		hi++
	}
	// The matches [lo, hi) sit on consecutive pages, each read once; a miss
	// (lo == hi) still reads the page slot lo is on.
	first := min(lo, len(st.keys)-1) / st.pageSize
	last := max(first, (hi-1)/st.pageSize)
	var out []Record
	for page := first; page <= last; page++ {
		st.stats.leafReads.Add(1)
		pg, err := st.fetchPage(page)
		if err != nil {
			continue
		}
		base := page * st.pageSize
		out = append(out, pg.Records[max(lo, base)-base:min(hi, base+st.pageSize)-base]...)
	}
	return out
}

// NeighborSweep visits, for every record, the records in the 2d neighboring
// cells of its cell — the access pattern of a stencil or N-body pass run
// straight off the store — and returns the I/O charged. Page reads are
// charged against an LRU cache of cachePages pages, so the result measures
// locality: a curve that keeps neighbor cells on nearby pages hits the
// cache, a stretched one faults. The sweep is strict: it fails on the first
// page the device cannot serve.
func (st *Store) NeighborSweep(cachePages int) (Stats, error) {
	if cachePages < 1 {
		return Stats{}, fmt.Errorf("store: cache of %d pages", cachePages)
	}
	st.ResetStats()
	u := st.c.Universe()
	cache := newLRU(cachePages)
	resident := map[int]Page{} // content of pages currently in the LRU
	readPage := func(page int) (Page, error) {
		hit, evicted := cache.access(page)
		if evicted >= 0 {
			delete(resident, evicted)
		}
		if hit {
			return resident[page], nil
		}
		st.stats.leafReads.Add(1)
		pg, err := st.fetchPage(page)
		if err != nil {
			return Page{}, err
		}
		resident[page] = pg
		return pg, nil
	}
	var sweepErr error
	for i := range st.keys {
		pg, err := readPage(i / st.pageSize)
		if err != nil {
			return st.Stats(), err
		}
		u.Neighbors(pg.Records[i%st.pageSize].Point, func(_ int, nb grid.Point) {
			if sweepErr != nil {
				return
			}
			target := st.c.Index(nb)
			j := sort.Search(len(st.keys), func(k int) bool { return st.keys[k] >= target })
			for ; j < len(st.keys) && st.keys[j] == target; j++ {
				if _, err := readPage(j / st.pageSize); err != nil {
					sweepErr = err
					return
				}
			}
		})
		if sweepErr != nil {
			return st.Stats(), sweepErr
		}
	}
	return st.Stats(), nil
}

// lru is a minimal LRU set of page ids.
type lru struct {
	cap   int
	order []int // most recent last
	in    map[int]bool
}

func newLRU(cap int) *lru { return &lru{cap: cap, in: map[int]bool{}} }

// access touches a page, reporting a hit and the page evicted to admit it
// (-1 when nothing was evicted).
func (l *lru) access(page int) (hit bool, evicted int) {
	if l.in[page] {
		// Move to back.
		for i, p := range l.order {
			if p == page {
				l.order = append(append(l.order[:i:i], l.order[i+1:]...), page)
				break
			}
		}
		return true, -1
	}
	l.in[page] = true
	l.order = append(l.order, page)
	if len(l.order) > l.cap {
		evict := l.order[0]
		l.order = l.order[1:]
		delete(l.in, evict)
		return false, evict
	}
	return false, -1
}
