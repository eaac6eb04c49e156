package store

import (
	"context"
	"io"

	"repro/internal/query"
)

// ScanResult is the outcome of one Scan: every record the store could read
// from the requested curve intervals, plus an explicit description of the
// part it could not serve.
type ScanResult struct {
	// Records holds the readable records whose curve keys lie in the
	// scanned intervals, in ascending curve-key order (the intervals must be
	// sorted and disjoint), records sharing a key in store order.
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
// below 1 are ignored. Scan accepts it too — it is the same cursor — and
// returns the same ScanResult for every batch size.
func ScanBatchSize(n int) ScanOption {
	return scanOptionFunc(func(c *scanConfig) {
		if n >= 1 {
			c.batch = n
		}
	})
}

// Scan is the buffered scan: ScanCursor over the given sorted, disjoint
// curve intervals (as produced by query.DecomposeBox or a shared
// decomposition cache), drained by Collect. It returns the records whose
// keys the intervals contain, in curve order, and like the cursor rejects
// unsorted, overlapping or inverted intervals.
//
// Cancellation and deadline are honored between leaf page reads, so a scan
// over many pages stops within one page fetch of ctx ending, with the
// context's error and the zero ScanResult — never a partial one.
//
// By default the scan is degraded: pages that stay unavailable after the
// retry budget do not fail it — their key spans are subtracted from the
// result and reported as dark intervals in ScanResult.Unavailable. With
// ScanStrict the first such page fails the scan. With the default in-memory
// device (or a fault injector that injects nothing) both modes return
// byte-identical records and charge identical Stats — degraded mode costs
// nothing when nothing fails.
func (st *Store) Scan(ctx context.Context, ivs []query.Interval, opts ...ScanOption) (ScanResult, error) {
	cur, err := st.ScanCursor(ivs, opts...)
	if err != nil {
		return ScanResult{}, err
	}
	return Collect(ctx, cur)
}

// Collect drains cur into one ScanResult and closes it, on every path. The
// records are copied out of the cursor's recycled buffers, the dark deltas
// merged into the final tiling, the page charges summed. On any Next error
// it returns the zero ScanResult and that error: a failed scan reports
// nothing, not even the pages it had read.
func Collect(ctx context.Context, cur BatchCursor) (ScanResult, error) {
	defer cur.Close()
	var res ScanResult
	for {
		b, err := cur.Next(ctx)
		if err == io.EOF {
			res.Unavailable = query.MergeIntervals(res.Unavailable)
			return res, nil
		}
		if err != nil {
			return ScanResult{}, err
		}
		res.Records = append(res.Records, b.Records...)
		res.Unavailable = append(res.Unavailable, b.Dark...)
		res.PagesRead += b.PagesRead
	}
}

// ScanBox decomposes the box through the store's curve and scans it — the
// box-level convenience over Scan. Callers that share decompositions (the
// service layer's cache) decompose once and pass the intervals.
func (st *Store) ScanBox(ctx context.Context, b query.Box, opts ...ScanOption) (ScanResult, error) {
	return st.Scan(ctx, query.DecomposeBox(st.c, b), opts...)
}
