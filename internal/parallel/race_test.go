package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// These stress tests exist to run under `go test -race ./internal/parallel`
// (wired as an explicit CI step): many goroutines drive every reduction
// concurrently, with worker counts straddling the sequential cutoff, while
// the determinism assertions double as memory-visibility checks — a partial
// sum written without proper synchronization would surface as either a race
// report or a value mismatch.

// stressN sits above minSequential so the reductions actually fan out.
const stressN = 3 * minSequential

func TestRaceStressSumUint64(t *testing.T) {
	term := func(i uint64) uint64 { return i*i + 1 }
	want := SumUint64(stressN, 1, term)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if got := SumUint64(stressN, 1+(g+rep)%9, term); got != want {
					t.Errorf("goroutine %d: %d != %d", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRaceStressMapRanges(t *testing.T) {
	type pair struct {
		sum   uint64
		count uint64
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				workers := 1 + (g*3+rep)%8
				parts := MapRanges(stressN, workers, func(lo, hi uint64) pair {
					var p pair
					for i := lo; i < hi; i++ {
						p.sum += i
						p.count++
					}
					return p
				})
				var total pair
				for _, p := range parts {
					total.sum += p.sum
					total.count += p.count
				}
				if total.count != stressN || total.sum != stressN*(stressN-1)/2 {
					t.Errorf("goroutine %d workers=%d: %+v", g, workers, total)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRaceStressForChunked(t *testing.T) {
	// Every index must be visited exactly once per sweep, under concurrent
	// sweeps sharing nothing but the scheduler.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hits := make([]atomic.Uint32, stressN)
			ForChunked(stressN, 1+g%5, func(lo, hi uint64) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if v := hits[i].Load(); v != 1 {
					t.Errorf("goroutine %d: index %d visited %d times", g, i, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRaceStressChunkedReductions(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workers := 1 + g
			gotU := SumUint64Chunked(stressN, workers, func(lo, hi uint64) uint64 {
				return hi*(hi-1)/2 - lo*(lo-1)/2
			})
			if gotU != stressN*(stressN-1)/2 {
				t.Errorf("SumUint64Chunked workers=%d: %d", workers, gotU)
			}
		}(g)
	}
	wg.Wait()
}

func TestRaceStressOverProvisioned(t *testing.T) {
	// More workers than cores and more workers than chunks: the static
	// schedule clamps rather than deadlocking or dropping ranges.
	workers := 4 * runtime.GOMAXPROCS(0)
	term := func(i uint64) uint64 { return 1 }
	if got := SumUint64(stressN, workers, term); got != stressN {
		t.Fatalf("over-provisioned sum %d", got)
	}
	if got := SumUint64(10, workers, term); got != 10 {
		t.Fatalf("tiny-n sum %d", got)
	}
}
