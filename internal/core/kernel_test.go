package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
)

func TestFillBlockCoords(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{1, 0}, {1, 3}, {2, 2}, {3, 2}, {2, 5}} {
		u := grid.MustNew(tc.d, tc.k)
		n := int(u.N())
		for _, lo := range []int{0, 1, n / 3, n - 1} {
			if lo < 0 || lo >= n {
				continue
			}
			cnt := n - lo
			if cnt > 300 {
				cnt = 300
			}
			coords := make([]uint32, cnt*tc.d)
			fillBlockCoords(u, uint64(lo), cnt, coords)
			p := u.NewPoint()
			for j := 0; j < cnt; j++ {
				u.FromLinear(uint64(lo+j), p)
				if !p.Equal(grid.Point(coords[j*tc.d : (j+1)*tc.d])) {
					t.Fatalf("d=%d k=%d lo=%d: row %d = %v, want %v",
						tc.d, tc.k, lo, j, coords[j*tc.d:(j+1)*tc.d], p)
				}
			}
		}
	}
}

// TestKernelSweepsBitIdentical pins the acceptance criterion of the kernel
// layer: for every registered curve, the kernelized NN, torus and Λ sweeps
// return exactly the bits of the legacy scalar sweeps (forced via
// curve.ScalarOnly).
func TestKernelSweepsBitIdentical(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{1, 5}, {2, 3}, {2, 4}, {3, 2}, {3, 3}} {
		u := grid.MustNew(tc.d, tc.k)
		for _, name := range curve.Names() {
			c, err := curve.ByName(name, u, 11)
			if err != nil {
				t.Fatalf("d=%d k=%d %s: %v", tc.d, tc.k, name, err)
			}
			ref := curve.ScalarOnly(c)
			for _, workers := range []int{1, 3} {
				got, want := NNStretchResult(c, workers), NNStretchResult(ref, workers)
				if got != want {
					t.Errorf("d=%d k=%d %s workers=%d: kernel NN %+v, scalar %+v",
						tc.d, tc.k, name, workers, got, want)
				}
				got, want = NNStretchTorusResult(c, workers), NNStretchTorusResult(ref, workers)
				if got != want {
					t.Errorf("d=%d k=%d %s workers=%d: kernel torus %+v, scalar %+v",
						tc.d, tc.k, name, workers, got, want)
				}
				gl, wl := Lambdas(c, workers), Lambdas(ref, workers)
				for i := range wl {
					if gl[i] != wl[i] {
						t.Errorf("d=%d k=%d %s workers=%d: kernel Λ_%d = %d, scalar %d",
							tc.d, tc.k, name, workers, i+1, gl[i], wl[i])
					}
				}
			}
		}
	}
}

// TestDeltaAtMatchesPublic pins deltaAt against the public per-cell
// accessors it now backs.
func TestDeltaAtMatchesPublic(t *testing.T) {
	u := grid.MustNew(2, 3)
	c, err := curve.ByName("hilbert", u, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := u.NewPoint()
	u.Cells(func(_ uint64, p grid.Point) bool {
		sum, max, deg := deltaAt(c, p, q)
		if deg != u.Degree(p) {
			t.Fatalf("deltaAt(%v) deg = %d, want %d", p, deg, u.Degree(p))
		}
		if got := DeltaAvgAt(c, p); got != float64(sum)/float64(deg) {
			t.Fatalf("DeltaAvgAt(%v) = %v, deltaAt gives %v", p, got, float64(sum)/float64(deg))
		}
		if got := DeltaMaxAt(c, p); got != max {
			t.Fatalf("DeltaMaxAt(%v) = %d, deltaAt gives %d", p, got, max)
		}
		return true
	})
}

// splitRanges cuts [0, n) into w contiguous chunks the way the parallel
// reductions do, but for every n, so that small universes also get chunk
// edges in the middle of a row or a slab.
func splitRanges(n uint64, w int) [][2]uint64 {
	var out [][2]uint64
	per, rem := n/uint64(w), n%uint64(w)
	var lo uint64
	for i := 0; i < w; i++ {
		hi := lo + per
		if uint64(i) < rem {
			hi++
		}
		out = append(out, [2]uint64{lo, hi})
		lo = hi
	}
	return out
}

// TestSweepWindowMatchesScalarPartial holds the row-pass partials — NN,
// torus NN and Λ — to the scalar reference partials, integer for integer,
// chunk by chunk: for every registry curve with a batch encoder, d ∈ {1, 2,
// 3, 4} including side 2 (every cell a boundary cell, and the torus
// 2-cycle), and worker counts whose chunk edges fall mid-row and mid-slab,
// so the row pass meets partial rows and an up-edge buffer filled by only
// part of the row before. One d = 3 chunk is longer than its ring, so the
// ring wraps; at d = 2, k = 9 a row is longer than an encode block.
func TestSweepWindowMatchesScalarPartial(t *testing.T) {
	wrapped, interior := false, false
	for _, tc := range []struct {
		d, k    int
		curves  []string // nil: every kernel curve
		workers []int
	}{
		{1, 1, nil, nil}, {1, 4, nil, nil}, {1, 9, nil, nil},
		{2, 1, nil, nil}, {2, 3, nil, nil}, {2, 6, nil, nil},
		{3, 1, nil, nil}, {3, 2, nil, nil}, {3, 4, nil, nil},
		{4, 1, nil, nil}, {4, 2, nil, nil},
		{2, 9, []string{"z", "hilbert"}, []int{3}},
	} {
		u := grid.MustNew(tc.d, tc.k)
		names := tc.curves
		if names == nil {
			names = curve.Names()
		}
		splits := tc.workers
		if splits == nil {
			splits = []int{1, 2, 3, 5, 7}
		}
		for _, name := range names {
			c, err := curve.ByName(name, u, 11)
			if err != nil {
				t.Fatalf("d=%d k=%d %s: %v", tc.d, tc.k, name, err)
			}
			if !curve.HasKernel(c) {
				continue
			}
			nk, ns := nnKernelPartial(c, false), nnScalarPartial(c)
			tk, ts := nnKernelPartial(c, true), nnTorusScalarPartial(c)
			lk, ls := lambdasKernelPartial(c), lambdasScalarPartial(c)
			for _, workers := range splits {
				for _, r := range splitRanges(u.N(), workers) {
					lo, hi := r[0], r[1]
					if lo == hi {
						continue
					}
					w := openWindow(c, lo, hi, false)
					wrapped = wrapped || tc.d == 3 && hi-lo > uint64(len(w.ring))
					for row := lo >> w.k; row < hi>>w.k; row++ {
						interior = interior || w.interior(row)
					}
					w.close()
					if got, want := nk(lo, hi), ns(lo, hi); !reflect.DeepEqual(got, want) {
						t.Errorf("d=%d k=%d %s [%d,%d): window NN %+v, scalar %+v", tc.d, tc.k, name, lo, hi, got, want)
					}
					if got, want := tk(lo, hi), ts(lo, hi); !reflect.DeepEqual(got, want) {
						t.Errorf("d=%d k=%d %s [%d,%d): window torus %+v, scalar %+v", tc.d, tc.k, name, lo, hi, got, want)
					}
					gl, wl := lk(lo, hi), ls(lo, hi)
					for i := range wl {
						if gl[i] != wl[i] {
							t.Errorf("d=%d k=%d %s [%d,%d): window Λ_%d = %d, scalar %d", tc.d, tc.k, name, lo, hi, i+1, gl[i], wl[i])
						}
					}
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no d=3 chunk was longer than its ring: the wrap-around is untested")
	}
	if !interior {
		t.Fatal("no chunk had an interior row: the straight loop is untested")
	}
}

// TestNNAccCarries feeds the 128-bit accumulators cells whose sums cross
// 2^64 and holds the totals, and both roundings, to big.Int arithmetic.
func TestNNAccCarries(t *testing.T) {
	const d = 2
	var parts []nnAcc
	want := make([]*big.Int, d+1)
	for g := range want {
		want[g] = new(big.Int)
	}
	wantMax := new(big.Int)
	for chunk := 0; chunk < 3; chunk++ {
		a := newNNAcc(d)
		for i := 0; i < 5; i++ {
			sum, max := ^uint64(0)-uint64(i), uint64(1)<<63+uint64(i)
			deg := d + (chunk+i)%(d+1)
			a.addCell(sum, max, deg)
			want[deg-d].Add(want[deg-d], new(big.Int).SetUint64(sum))
			wantMax.Add(wantMax, new(big.Int).SetUint64(max))
		}
		parts = append(parts, a)
	}
	tot := addNN(parts, d)
	for g, w := range want {
		if got := tot.sum[g].big(); got.Cmp(w) != 0 {
			t.Errorf("T_%d = %v, want %v", g+d, got, w)
		}
	}
	if got := tot.max.big(); got.Cmp(wantMax) != 0 {
		t.Errorf("Σ δmax = %v, want %v", got, wantMax)
	}
	n := uint64(1) << 20
	wantAvg := new(big.Rat)
	for g, w := range want {
		wantAvg.Add(wantAvg, new(big.Rat).SetFrac(w, big.NewInt(int64(uint64(g+d)*n))))
	}
	davg, dmax := exactNN(parts, d, n)
	if davg.Cmp(wantAvg) != 0 || dmax.Cmp(new(big.Rat).SetFrac(wantMax, new(big.Int).SetUint64(n))) != 0 {
		t.Fatalf("exactNN = (%v, %v), want (%v, %v/%d)", davg, dmax, wantAvg, wantMax, n)
	}
	a, _ := davg.Float64()
	m, _ := dmax.Float64()
	if got := reduceNN(parts, d, n); got != (NN{a, m}) {
		t.Fatalf("reduceNN = %+v, exact rounding (%v, %v)", got, a, m)
	}
}

// TestReduceNNRoundsOnce holds reduceNN's float division, taken while the
// sums stay below 2^53, to the correctly rounded exact rationals, on both
// sides of that limit and for every d up to 6.
func TestReduceNNRoundsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fast := 0
	for d := 1; d <= 6; d++ {
		for trial := 0; trial < 200; trial++ {
			a := newNNAcc(d)
			scale := int64(1) << (10 + rng.Intn(45))
			for i := 0; i < 1+rng.Intn(8); i++ {
				a.addCell(uint64(rng.Int63n(scale)), uint64(rng.Int63n(scale)), d+rng.Intn(d+1))
			}
			if d <= 2 && scale < 1<<40 { // n·L·Davg < 8·2^40·24
				fast++
			}
			n := uint64(1) << (d * (1 + rng.Intn(62/d)))
			davg, dmax := exactNN([]nnAcc{a}, d, n)
			wa, _ := davg.Float64()
			wm, _ := dmax.Float64()
			if got := reduceNN([]nnAcc{a}, d, n); got != (NN{wa, wm}) {
				t.Fatalf("d=%d %+v n=%d: reduceNN %+v, exact rounding (%v, %v)", d, a, n, got, wa, wm)
			}
		}
	}
	if fast == 0 {
		t.Fatal("no trial stayed below 2^53: the float division is untested")
	}
}

// skipUnderRace skips allocation bounds under the race detector, where
// sync.Pool drops recycled buffers at random.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation bounds do not hold under -race: sync.Pool drops buffers at random")
			}
		}
	}
}

// sweepAllocSlack is what one warm parallel sweep may allocate: the
// MapRanges plumbing (ranges, results, closures), a few hundred bytes. One
// window's ring at d = 3, k = 5 alone is 32 KiB.
const sweepAllocSlack = 2 << 10

// TestSweepWindowAllocationIsBounded: the window partials take their ring,
// torus slabs and block staging from a pool, so once a sweep has warmed it
// a repeated sweep allocates only the fixed per-call cost of MapRanges.
// Which pooled window a worker gets is up to the scheduler — a window an
// earlier sweep left without torus slabs grows them on first use — so the
// pool is emptied first and the bound must hold for the best of three
// batches; without recycling, every batch pays a ring per worker per sweep.
func TestSweepWindowAllocationIsBounded(t *testing.T) {
	skipUnderRace(t)
	u := grid.MustNew(3, 5)
	c, err := curve.ByName("hilbert", u, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers, runs = 2, 8
	for _, sweep := range []struct {
		name string
		run  func() NN
	}{
		{"NNStretchResult", func() NN { return NNStretchResult(c, workers) }},
		{"NNStretchTorusResult", func() NN { return NNStretchTorusResult(c, workers) }},
	} {
		runtime.GC() // two collections empty a sync.Pool
		runtime.GC()
		want := sweep.run() // warm: the first call fills the pool
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if got := sweep.run(); got != want {
					t.Fatalf("%s: repeated sweep %+v, first %+v", sweep.name, got, want)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s: %d bytes per warm sweep", sweep.name, best)
		if best > sweepAllocSlack {
			t.Fatalf("%s allocated %d bytes per warm sweep, bound %d: the window is not recycled", sweep.name, best, sweepAllocSlack)
		}
	}
}

// TestSweepWindowConcurrentSweeps runs parallel sweeps of different sizes
// and kinds at once, so the pooled windows pass between goroutines and
// between universes; each result must still equal the scalar sweep. Run
// it under -race.
func TestSweepWindowConcurrentSweeps(t *testing.T) {
	type job struct {
		name string
		run  func(c curve.Curve) NN
		c    curve.Curve
		want NN
	}
	var jobs []job
	for _, g := range []struct{ d, k int }{{2, 7}, {3, 4}, {1, 13}} {
		u := grid.MustNew(g.d, g.k)
		for _, name := range []string{"hilbert", "snake"} {
			c, err := curve.ByName(name, u, 1)
			if err != nil {
				t.Fatal(err)
			}
			open := func(c curve.Curve) NN { return NNStretchResult(c, 3) }
			torus := func(c curve.Curve) NN { return NNStretchTorusResult(c, 3) }
			ref := curve.ScalarOnly(c)
			jobs = append(jobs,
				job{fmt.Sprintf("%s d=%d k=%d open", name, g.d, g.k), open, c, open(ref)},
				job{fmt.Sprintf("%s d=%d k=%d torus", name, g.d, g.k), torus, c, torus(ref)})
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got := j.run(j.c); got != j.want {
					t.Errorf("%s: window sweep %+v, scalar %+v", j.name, got, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
