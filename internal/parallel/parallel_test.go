package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 100000
	var seen [n]int32
	For(n, 7, func(i uint64) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForSmallRunsSequentially(t *testing.T) {
	var count int // no synchronization: must be safe because n < minSequential
	For(100, 8, func(i uint64) { count++ })
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

func TestForZero(t *testing.T) {
	called := false
	For(0, 4, func(uint64) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
}

func TestForChunkedCoversRange(t *testing.T) {
	const n = 250000
	var total atomic.Uint64
	ForChunked(n, 5, func(lo, hi uint64) {
		if lo >= hi || hi > n {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		total.Add(hi - lo)
	})
	if total.Load() != n {
		t.Fatalf("covered %d of %d", total.Load(), n)
	}
}

func TestSumUint64(t *testing.T) {
	const n = 1 << 20
	got := SumUint64(n, 0, func(i uint64) uint64 { return i })
	want := uint64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestSumUint64WorkerInvariance(t *testing.T) {
	const n = 1<<18 + 17
	ref := SumUint64(n, 1, func(i uint64) uint64 { return i*i + 3 })
	for _, w := range []int{2, 3, 8, 32} {
		if got := SumUint64(n, w, func(i uint64) uint64 { return i*i + 3 }); got != ref {
			t.Fatalf("workers=%d sum %d != %d", w, got, ref)
		}
	}
}

func TestSumChunkedMatchesPerIndex(t *testing.T) {
	const n = 1<<18 + 5
	wantU := SumUint64(n, 3, func(i uint64) uint64 { return i % 97 })
	gotU := SumUint64Chunked(n, 3, func(lo, hi uint64) uint64 {
		var s uint64
		for i := lo; i < hi; i++ {
			s += i % 97
		}
		return s
	})
	if gotU != wantU {
		t.Fatalf("chunked %v != per-index %v", gotU, wantU)
	}
}

func TestPartialRanges(t *testing.T) {
	for _, tc := range []struct {
		n       uint64
		workers int
	}{{0, 4}, {1, 4}, {10, 4}, {4096, 4}, {100000, 7}, {100001, 1}} {
		parts := partialRanges(tc.n, tc.workers)
		var covered uint64
		prev := uint64(0)
		for _, p := range parts {
			if p.lo != prev {
				t.Fatalf("n=%d w=%d: gap at %d", tc.n, tc.workers, p.lo)
			}
			covered += p.hi - p.lo
			prev = p.hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d w=%d: covered %d", tc.n, tc.workers, covered)
		}
	}
}
