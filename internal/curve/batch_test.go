package curve

import (
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
	if tab := hilbertTableFor(2); tab != nil && len(tab.enc) != 4 {
		t.Errorf("d=2 Hilbert machine has %d states, want 4", len(tab.enc))
	}
	if tab := hilbertTableFor(3); tab != nil && len(tab.enc) != 12 {
		// Probe-derived machines may intern any reachable subset; log the
		// count for the record but only fail when it explodes.
		if len(tab.enc) > 64 {
			t.Errorf("d=3 Hilbert machine has %d states, want a small constant", len(tab.enc))
		}
		t.Logf("d=3 Hilbert machine: %d states", len(tab.enc))
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
