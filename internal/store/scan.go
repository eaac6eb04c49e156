package store

import (
	"context"
	"sort"

	"repro/internal/query"
)

// ScanResult is the outcome of one Scan: every record the store could read
// from the requested curve intervals, plus an explicit description of the
// part it could not serve.
type ScanResult struct {
	// Records holds the readable records whose curve keys lie in the
	// scanned intervals, in curve-interval scan order (ascending curve key
	// within each interval, intervals in the given order — globally
	// ascending when the input is sorted).
	Records []Record
	// Unavailable lists the curve-index intervals the store could not
	// serve: sorted, disjoint, merged, and each contained in one of the
	// scanned intervals. Together with Records it tiles the scan exactly: a
	// stored record with key in the scanned intervals is in Records iff its
	// key lies outside every unavailable interval. Always empty for a
	// strict scan (the first dark page fails the scan instead).
	Unavailable []query.Interval
	// PagesRead counts the distinct leaf pages this scan touched,
	// including pages that stayed dark. Callers aggregate it into
	// pages-read metrics without diffing cumulative store stats under
	// concurrency.
	PagesRead int
}

// Complete reports whether the whole scan was served.
func (r ScanResult) Complete() bool { return len(r.Unavailable) == 0 }

// scanConfig is the resolved per-scan configuration.
type scanConfig struct {
	strict bool
	batch  int // cursor batch target; 0 means DefaultScanBatch
}

// ScanOption configures one Scan call.
type ScanOption interface {
	applyScan(*scanConfig)
}

type scanOptionFunc func(*scanConfig)

func (f scanOptionFunc) applyScan(c *scanConfig) { f(c) }

// ScanStrict makes the first page that stays unavailable after the retry
// budget fail the whole scan with an error wrapping ErrPageUnavailable,
// instead of subtracting its key span into ScanResult.Unavailable. Use it
// when a partial answer is worthless — conformance oracles, strict
// consistency checks — and the default degraded mode when availability
// matters more than completeness.
func ScanStrict() ScanOption {
	return scanOptionFunc(func(c *scanConfig) { c.strict = true })
}

// ScanBatchSize sets the record count a ScanCursor targets per batch
// (default DefaultScanBatch). A batch ends only on a page boundary, so a
// run of duplicate keys can overshoot the target by up to a page. Values
// below 1 are ignored; Scan itself ignores the option entirely.
func ScanBatchSize(n int) ScanOption {
	return scanOptionFunc(func(c *scanConfig) {
		if n >= 1 {
			c.batch = n
		}
	})
}

// Scan is the store's single query entry point: it scans the given sorted,
// disjoint curve intervals (as produced by query.DecomposeBox or a shared
// decomposition cache) and returns the records whose keys they contain, in
// curve order.
//
// Cancellation and deadline are honored between leaf page reads, so a scan
// over many pages stops within one page fetch of ctx ending; a canceled
// scan returns the context's error, never a fabricated partial result.
//
// By default the scan is degraded: pages that stay unavailable after the
// retry budget do not fail it — their key spans are subtracted from the
// result and reported as dark intervals in ScanResult.Unavailable. With
// ScanStrict the first such page fails the scan. With the default in-memory
// device (or a fault injector that injects nothing) both modes return
// byte-identical records and charge identical Stats — degraded mode costs
// nothing when nothing fails.
func (st *Store) Scan(ctx context.Context, ivs []query.Interval, opts ...ScanOption) (ScanResult, error) {
	var cfg scanConfig
	for _, opt := range opts {
		if opt != nil {
			opt.applyScan(&cfg)
		}
	}
	cache := newPageCache(st)
	type span struct {
		iv     query.Interval
		lo, hi int // slot range [lo, hi) of records inside iv
	}
	spans := make([]span, 0, len(ivs))
	// Pass 1: locate each interval's slot range and fetch every page the
	// scan touches, in scan order, collecting the dark key spans of failed
	// pages (or failing fast under ScanStrict).
	var dark []query.Interval
	for _, iv := range ivs {
		lo := st.descend(iv.Lo)
		hi := lo + sort.Search(len(st.keys)-lo, func(i int) bool { return st.keys[lo+i] >= iv.Hi })
		spans = append(spans, span{iv: iv, lo: lo, hi: hi})
		if lo == hi {
			continue
		}
		for page := lo / st.pageSize; page <= (hi-1)/st.pageSize; page++ {
			if err := ctx.Err(); err != nil {
				return ScanResult{PagesRead: cache.pagesRead()}, err
			}
			if _, err := cache.get(page); err != nil {
				if cfg.strict {
					return ScanResult{PagesRead: cache.pagesRead()}, err
				}
				ks := st.pageKeySpan(page)
				if ks.Lo < iv.Lo {
					ks.Lo = iv.Lo
				}
				if ks.Hi > iv.Hi {
					ks.Hi = iv.Hi
				}
				if ks.Lo < ks.Hi {
					dark = append(dark, ks)
				}
			}
		}
	}
	dark = query.MergeIntervals(dark)
	// Pass 2: collect records, skipping dark pages and any record whose key
	// falls in a dark interval (duplicate keys straddling a page boundary
	// are only partially readable, so the whole key goes dark).
	var out []Record
	cur := -1 // memoize the scan's current page: pages arrive consecutively
	var pg Page
	var pgErr error
	for _, sp := range spans {
		for i := sp.lo; i < sp.hi; i++ {
			if id := i / st.pageSize; id != cur {
				pg, pgErr = cache.get(id)
				cur = id
			}
			if pgErr != nil || query.IntervalsContain(dark, st.keys[i]) {
				continue
			}
			out = append(out, pg.Records[i%st.pageSize])
		}
	}
	return ScanResult{
		Records:     out,
		Unavailable: dark,
		PagesRead:   cache.pagesRead(),
	}, nil
}

// ScanBox decomposes the box through the store's curve and scans it — the
// box-level convenience over Scan. Callers that share decompositions (the
// service layer's cache) decompose once and call Scan directly.
func (st *Store) ScanBox(ctx context.Context, b query.Box, opts ...ScanOption) (ScanResult, error) {
	return st.Scan(ctx, query.DecomposeBox(st.c, b), opts...)
}

// pagesRead counts the distinct pages this cache touched, dark ones
// included.
func (pc *pageCache) pagesRead() int { return len(pc.pages) + len(pc.failed) }
