// Package parallel provides the small set of data-parallel building blocks
// used by the exact stretch computations: a chunked parallel for-loop and
// deterministic parallel reductions.
//
// Every exact metric in this repository is an integer sum over the n cells
// of the universe (or over the offsets of the all-pairs table). The helpers
// here split the index space into contiguous chunks, evaluate chunks on
// worker goroutines, and combine the per-chunk partial results in chunk
// order. Integer partials add exactly, so results are bit-for-bit
// reproducible regardless of scheduling and worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers returns the worker count to use when the caller passes 0.
func defaultWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// minSequential is the loop size below which parallel dispatch costs more
// than it saves; such loops run on the calling goroutine.
const minSequential = 4096

// For runs fn(i) for every i in [0, n), distributing contiguous chunks of
// the index space across workers goroutines (GOMAXPROCS when workers <= 0).
// fn must be safe for concurrent invocation on distinct indices.
func For(n uint64, workers int, fn func(i uint64)) {
	ForChunked(n, workers, func(lo, hi uint64) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and runs fn(lo, hi) for
// each chunk on a pool of workers goroutines. Chunks are claimed dynamically
// (work stealing via an atomic cursor) so uneven per-index costs still
// balance. fn must be safe for concurrent invocation on disjoint ranges.
func ForChunked(n uint64, workers int, fn func(lo, hi uint64)) {
	if n == 0 {
		return
	}
	w := defaultWorkers(workers)
	if w == 1 || n < minSequential {
		fn(0, n)
		return
	}
	// Aim for several chunks per worker so dynamic claiming can rebalance,
	// without making chunks so small that cursor traffic dominates.
	chunk := n / uint64(w*8)
	if chunk < 1024 {
		chunk = 1024
	}
	var cursor atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				lo := cursor.Add(chunk) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// SumUint64 returns the sum over i in [0, n) of term(i), computed in
// parallel. Partial sums are combined deterministically; the total must fit
// in a uint64 (the caller is responsible for range analysis — the universe
// size limits in the grid package guarantee this for all shipped metrics).
func SumUint64(n uint64, workers int, term func(i uint64) uint64) uint64 {
	parts := partialRanges(n, workers)
	sums := make([]uint64, len(parts))
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for pi := range parts {
		go func(pi int) {
			defer wg.Done()
			var s uint64
			for i := parts[pi].lo; i < parts[pi].hi; i++ {
				s += term(i)
			}
			sums[pi] = s
		}(pi)
	}
	wg.Wait()
	var total uint64
	for _, s := range sums {
		total += s
	}
	return total
}

// SumUint64Chunked is like SumUint64 but hands whole ranges to term.
func SumUint64Chunked(n uint64, workers int, term func(lo, hi uint64) uint64) uint64 {
	parts := partialRanges(n, workers)
	sums := make([]uint64, len(parts))
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for pi := range parts {
		go func(pi int) {
			defer wg.Done()
			sums[pi] = term(parts[pi].lo, parts[pi].hi)
		}(pi)
	}
	wg.Wait()
	var total uint64
	for _, s := range sums {
		total += s
	}
	return total
}

// MapRanges splits [0, n) into one contiguous range per worker, evaluates
// fn on each range concurrently, and returns the per-range results in range
// order. It is the building block for reductions that accumulate more than
// one quantity per sweep; combining the returned slice sequentially keeps
// the overall computation deterministic.
func MapRanges[T any](n uint64, workers int, fn func(lo, hi uint64) T) []T {
	parts := partialRanges(n, workers)
	out := make([]T, len(parts))
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for pi := range parts {
		go func(pi int) {
			defer wg.Done()
			out[pi] = fn(parts[pi].lo, parts[pi].hi)
		}(pi)
	}
	wg.Wait()
	return out
}

type span struct{ lo, hi uint64 }

// partialRanges splits [0, n) into one contiguous range per worker (static
// schedule). Reductions use a static schedule — rather than the dynamic one
// in ForChunked — so the partial-sum combine order is a pure function of
// (n, workers).
func partialRanges(n uint64, workers int) []span {
	w := defaultWorkers(workers)
	if n == 0 {
		return []span{{0, 0}}
	}
	if uint64(w) > n {
		w = int(n)
	}
	if n < minSequential {
		w = 1
	}
	parts := make([]span, w)
	per := n / uint64(w)
	rem := n % uint64(w)
	var lo uint64
	for i := 0; i < w; i++ {
		hi := lo + per
		if uint64(i) < rem {
			hi++
		}
		parts[i] = span{lo, hi}
		lo = hi
	}
	return parts
}
