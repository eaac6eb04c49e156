package curve

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// batchCases are the (d, k) universes the differential tests enumerate
// exhaustively (n ≤ 4096 each).
var batchCases = []struct{ d, k int }{
	{1, 0}, {1, 1}, {1, 2}, {1, 7}, {1, 12},
	{2, 0}, {2, 1}, {2, 2}, {2, 4}, {2, 6},
	{3, 0}, {3, 1}, {3, 2}, {3, 4},
}

// batchBigCases are sampled (not enumerated) universes near the key-width
// budget (k ≤ 31 so coordinates fit uint32); curves whose factories reject
// large universes are skipped.
var batchBigCases = []struct{ d, k int }{
	{1, 31}, {2, 25}, {3, 18},
}

// checkKernelAt verifies IndexBatch and PointBatch against the scalar
// methods on the given block of points.
func checkKernelAt(t *testing.T, c Curve, coords []uint32) {
	t.Helper()
	u := c.Universe()
	d := u.D()
	n := len(coords) / d

	b := NewBatcher(c)
	keys := make([]uint64, n)
	b.IndexBatch(coords, keys)
	for i := 0; i < n; i++ {
		p := grid.Point(coords[i*d : (i+1)*d])
		if want := c.Index(p); keys[i] != want {
			t.Fatalf("%s: IndexBatch(%v) = %d, scalar Index = %d", c.Name(), p, keys[i], want)
		}
	}

	back := make([]uint32, len(coords))
	b.PointBatch(keys, back)
	q := u.NewPoint()
	for i := 0; i < n; i++ {
		c.Point(keys[i], q)
		if !q.Equal(grid.Point(back[i*d : (i+1)*d])) {
			t.Fatalf("%s: PointBatch(%d) = %v, scalar Point = %v", c.Name(), keys[i], back[i*d:(i+1)*d], q)
		}
	}
}

// TestKernelMatchesScalar is the differential test of the satellite list:
// for every registered curve over d ∈ {1,2,3} and several k, the batch
// kernels must bit-match the scalar Index/Point.
func TestKernelMatchesScalar(t *testing.T) {
	for _, tc := range batchCases {
		u := grid.MustNew(tc.d, tc.k)
		coords := make([]uint32, int(u.N())*tc.d)
		p := u.NewPoint()
		for lin := uint64(0); lin < u.N(); lin++ {
			u.FromLinear(lin, p)
			copy(coords[int(lin)*tc.d:], p)
		}
		for _, name := range Names() {
			c, err := ByName(name, u, 7)
			if err != nil {
				t.Fatalf("d=%d k=%d %s: %v", tc.d, tc.k, name, err)
			}
			checkKernelAt(t, c, coords)
		}
	}
}

// TestKernelMatchesScalarSampled repeats the differential check on sampled
// points of near-maximal universes, where enumeration is impossible.
func TestKernelMatchesScalarSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const samples = 512
	for _, tc := range batchBigCases {
		u := grid.MustNew(tc.d, tc.k)
		mask := u.Side() - 1
		coords := make([]uint32, samples*tc.d)
		for i := range coords {
			coords[i] = rng.Uint32() & mask
		}
		for _, name := range Names() {
			c, err := ByName(name, u, 7)
			if err != nil {
				// Table-backed curves reject universes this large.
				continue
			}
			checkKernelAt(t, c, coords)
		}
	}
}

// TestHilbertTableBuilds pins that the state-table derivation from the
// scalar Skilling implementation succeeds for the dimensions the sweeps
// use; a nil table silently degrades Hilbert batches to scalar speed.
func TestHilbertTableBuilds(t *testing.T) {
	for d := 1; d <= 4; d++ {
		if hilbertTableFor(d) == nil {
			t.Errorf("hilbertTableFor(%d) = nil, want a verified state table", d)
		}
	}
	// The flat tables hold 2^d entries per state.
	if tab := hilbertTableFor(2); tab != nil && len(tab.enc)>>2 != 4 {
		t.Errorf("d=2 Hilbert machine has %d states, want 4", len(tab.enc)>>2)
	}
	if tab := hilbertTableFor(3); tab != nil && len(tab.enc)>>3 != 12 {
		// Probe-derived machines may intern any reachable subset; log the
		// count for the record but only fail when it explodes.
		if len(tab.enc)>>3 > 64 {
			t.Errorf("d=3 Hilbert machine has %d states, want a small constant", len(tab.enc)>>3)
		}
		t.Logf("d=3 Hilbert machine: %d states", len(tab.enc)>>3)
	}
}

// TestHasKernel pins which curves advertise native kernels and that
// ScalarOnly hides them.
func TestHasKernel(t *testing.T) {
	u := grid.MustNew(2, 4)
	want := map[string]bool{
		"z": true, "simple": true, "snake": true, "gray": true,
		"hilbert": true, "table": true,
		"random": false, "diagonal": false, "bitrev": false,
	}
	for _, name := range Names() {
		c, err := ByName(name, u, 7)
		if err != nil {
			t.Fatal(err)
		}
		w, pinned := want[name]
		if !pinned {
			continue
		}
		if got := HasKernel(c); got != w {
			t.Errorf("HasKernel(%s) = %v, want %v", name, got, w)
		}
		if HasKernel(ScalarOnly(c)) {
			t.Errorf("HasKernel(ScalarOnly(%s)) = true, want false", name)
		}
		s := ScalarOnly(c)
		p := u.MustPoint(3, 9)
		if s.Index(p) != c.Index(p) || s.Name() != c.Name() {
			t.Errorf("ScalarOnly(%s) changes scalar results", name)
		}
	}
}

// hilbertOrders returns blocks of up to size points of u in the input
// orders that steer Hilbert's IndexBatch walk reuse: row-major runs that
// cross rows, the same run reversed, random points, and each point twice in
// a row (Morton keys equal, nothing to walk).
func hilbertOrders(u *grid.Universe, rng *rand.Rand, size uint64) map[string][]uint32 {
	d := u.D()
	n := min(u.N(), size)
	start := uint64(rng.Int63n(int64(u.N() - n + 1)))
	p := u.NewPoint()
	var rowMajor, reversed, random, twice []uint32
	for i := uint64(0); i < n; i++ {
		u.FromLinear(start+i, p)
		rowMajor = append(rowMajor, p...)
		twice = append(twice, p...)
		twice = append(twice, p...)
	}
	for i := int(n) - 1; i >= 0; i-- {
		reversed = append(reversed, rowMajor[i*d:(i+1)*d]...)
	}
	for i := uint64(0); i < n; i++ {
		for j := range p {
			p[j] = uint32(rng.Int63n(int64(u.Side())))
		}
		random = append(random, p...)
	}
	return map[string][]uint32{"row-major": rowMajor, "reversed": reversed, "random": random, "twice": twice}
}

// TestHilbertIndexBatchOrders holds Hilbert's IndexBatch, which restarts
// each key's state walk at the highest level where its Morton key differs
// from the previous key's, to the scalar Index over every input order that
// changes what is reused.
func TestHilbertIndexBatchOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ d, k int }{{2, 1}, {2, 6}, {2, 11}, {3, 2}, {3, 7}, {4, 3}, {4, 8}} {
		u := grid.MustNew(tc.d, tc.k)
		h := NewHilbert(u)
		if h.tab == nil {
			t.Fatalf("d=%d: no Hilbert state table", tc.d)
		}
		for name, coords := range hilbertOrders(u, rng, 3000) {
			keys := make([]uint64, len(coords)/tc.d)
			h.IndexBatch(coords, keys)
			for i, got := range keys {
				p := grid.Point(coords[i*tc.d : (i+1)*tc.d])
				if want := h.Index(p); got != want {
					t.Fatalf("d=%d k=%d %s: IndexBatch key %d of %v = %d, Index = %d", tc.d, tc.k, name, i, p, got, want)
				}
			}
		}
	}
}

// BenchmarkHilbertIndexBatch times Hilbert's batch encode per key on
// random points, as the serving path meets them (one call over every
// record), and on row-major runs, as the exact sweeps do.
func BenchmarkHilbertIndexBatch(b *testing.B) {
	for _, tc := range []struct{ d, k int }{{2, 11}, {3, 7}} {
		u := grid.MustNew(tc.d, tc.k)
		h := NewHilbert(u)
		orders := hilbertOrders(u, rand.New(rand.NewSource(1)), 1<<18)
		for _, name := range []string{"random", "row-major"} {
			coords := orders[name]
			keys := make([]uint64, len(coords)/tc.d)
			b.Run(fmt.Sprintf("d%dk%d/%s", tc.d, tc.k, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.IndexBatch(coords, keys)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
			})
		}
	}
}
