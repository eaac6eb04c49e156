package store

import (
	"context"
	"io"
	"reflect"
	"sort"
	"testing"

	"repro/internal/curve"
	"repro/internal/query"
)

// modelScan is the oracle the scan tests compare against: what a degraded
// scan of ivs must return, computed from the definition in ScanResult's doc
// comment rather than by any code the store runs. keys (and recs, aligned
// with it) are the store's records in (key, load order), pageSize its leaf
// capacity, lost the pages its device cannot serve:
//
//   - a page is touched when one of its slots holds a key inside an
//     interval; PagesRead is the number of touched pages;
//   - Unavailable is the merged union, over every interval and every lost
//     page it touches, of the page's key span clipped to the interval;
//   - Records are the records in an interval, on a readable page, whose
//     key lies outside Unavailable — a key shared with a lost page goes
//     dark as a whole.
//
// Everything is a linear filter over the slots; nothing here descends an
// index, fetches a page or asks the store for a page's span. recs may be
// nil when only Unavailable and PagesRead are wanted.
func modelScan(keys []uint64, recs []Record, pageSize int, lost []int, ivs []query.Interval) ScanResult {
	isLost := map[int]bool{}
	for _, p := range lost {
		isLost[p] = true
	}
	touched := map[int]bool{}
	var spans []query.Interval
	for n, iv := range ivs {
		clipped := map[int]bool{} // lost pages already clipped to this interval
		for i, k := range keys {
			page := i / pageSize
			if !modelCovers(ivs[n:n+1], k) {
				continue
			}
			touched[page] = true
			if isLost[page] && !clipped[page] {
				clipped[page] = true
				first, last := page*pageSize, min((page+1)*pageSize, len(keys))-1
				spans = append(spans, query.Interval{Lo: max(keys[first], iv.Lo), Hi: min(keys[last]+1, iv.Hi)})
			}
		}
	}
	res := ScanResult{Unavailable: modelUnion(spans), PagesRead: len(touched)}
	if recs == nil {
		return res
	}
	for n := range ivs {
		for i, k := range keys {
			if modelCovers(ivs[n:n+1], k) && !isLost[i/pageSize] && !modelCovers(res.Unavailable, k) {
				res.Records = append(res.Records, recs[i])
			}
		}
	}
	return res
}

// modelUnion is the model's own interval merge: sorted by Lo, a span that
// starts inside or right at the end of its predecessor extends it.
func modelUnion(spans []query.Interval) []query.Interval {
	spans = append([]query.Interval(nil), spans...)
	sort.Slice(spans, func(a, b int) bool { return spans[a].Lo < spans[b].Lo })
	var out []query.Interval
	for _, s := range spans {
		if n := len(out); n > 0 && s.Lo <= out[n-1].Hi {
			out[n-1].Hi = max(out[n-1].Hi, s.Hi)
			continue
		}
		out = append(out, s)
	}
	return out
}

// modelCovers reports whether some interval holds k, by looking at each.
func modelCovers(ivs []query.Interval, k uint64) bool {
	for _, iv := range ivs {
		if iv.Lo <= k && k < iv.Hi {
			return true
		}
	}
	return false
}

// drainCursor collects a cursor into the ScanResult shape, checking the
// batch invariants along the way: Keys aligned with Records, every key
// below the batch watermark, and nothing — record key or dark span Lo —
// ever arriving below an earlier watermark.
func drainCursor(t *testing.T, ctx context.Context, cur BatchCursor, c curve.Curve) ScanResult {
	t.Helper()
	var res ScanResult
	prevWM := uint64(0)
	for {
		b, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("cursor Next: %v", err)
		}
		if len(b.Keys) != len(b.Records) {
			t.Fatalf("batch has %d keys for %d records", len(b.Keys), len(b.Records))
		}
		for i, r := range b.Records {
			k := b.Keys[i]
			if c != nil && c.Index(r.Point) != k {
				t.Fatalf("key %d does not match record %v (index %d)", k, r.Point, c.Index(r.Point))
			}
			if k >= b.Watermark {
				t.Fatalf("key %d at or above its batch watermark %d", k, b.Watermark)
			}
			if k < prevWM {
				t.Fatalf("key %d below an earlier watermark %d", k, prevWM)
			}
		}
		for _, d := range b.Dark {
			if d.Lo < prevWM {
				t.Fatalf("dark span [%d, %d) starts below an earlier watermark %d", d.Lo, d.Hi, prevWM)
			}
		}
		prevWM = b.Watermark
		res.Records = append(res.Records, b.Records...)
		res.Unavailable = append(res.Unavailable, b.Dark...)
		res.PagesRead += b.PagesRead
	}
	res.Unavailable = query.MergeIntervals(res.Unavailable)
	cur.Close()
	return res
}

// sameSlices is reflect.DeepEqual with nil and empty considered equal.
func sameSlices[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}

// sameResult compares a scan's outcome with the oracle's, field by field.
func sameResult(t *testing.T, label string, got, want ScanResult) {
	t.Helper()
	if !sameSlices(got.Records, want.Records) {
		t.Fatalf("%s: %d records, the model has %d", label, len(got.Records), len(want.Records))
	}
	if !sameSlices(got.Unavailable, want.Unavailable) {
		t.Fatalf("%s: dark %v, the model has %v", label, got.Unavailable, want.Unavailable)
	}
	if got.PagesRead != want.PagesRead {
		t.Fatalf("%s: PagesRead %d, the model has %d", label, got.PagesRead, want.PagesRead)
	}
}

// The external test package — its tests need internal/faultio, which imports
// this package — gets the oracle and its helpers under exported names.
var (
	ModelScan   = modelScan
	DrainCursor = drainCursor
	SameResult  = sameResult
)
