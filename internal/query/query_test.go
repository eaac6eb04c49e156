package query

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
)

func allCurves(t testing.TB, u *grid.Universe) []curve.Curve {
	t.Helper()
	var cs []curve.Curve
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, 13)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func TestNewBoxValidation(t *testing.T) {
	u := grid.MustNew(2, 3)
	if _, err := NewBox(u, u.MustPoint(1, 1), u.MustPoint(3, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBox(u, u.MustPoint(5, 1), u.MustPoint(3, 5)); err == nil {
		t.Fatal("inverted box accepted")
	}
	if _, err := NewBox(u, grid.Point{1}, u.MustPoint(3, 5)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestBoxBasics(t *testing.T) {
	u := grid.MustNew(2, 3)
	b, err := NewBox(u, u.MustPoint(1, 2), u.MustPoint(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if b.Volume() != 9 {
		t.Fatalf("volume %d", b.Volume())
	}
	if !b.Contains(u.MustPoint(2, 3)) || b.Contains(u.MustPoint(0, 3)) || b.Contains(u.MustPoint(2, 5)) {
		t.Fatal("Contains wrong")
	}
}

// intervalsCover checks that the intervals exactly cover the box's cell
// keys: disjoint, sorted, total length = volume, and every cell key inside.
func intervalsCover(t *testing.T, c curve.Curve, b Box, ivs []Interval) {
	t.Helper()
	var total uint64
	for i, iv := range ivs {
		if iv.Lo >= iv.Hi {
			t.Fatalf("empty interval %v", iv)
		}
		if i > 0 && ivs[i-1].Hi >= iv.Lo {
			t.Fatalf("intervals not disjoint/merged: %v then %v", ivs[i-1], iv)
		}
		total += iv.Len()
	}
	if total != b.Volume() {
		t.Fatalf("intervals cover %d cells, box has %d", total, b.Volume())
	}
	inSome := func(key uint64) bool {
		for _, iv := range ivs {
			if key >= iv.Lo && key < iv.Hi {
				return true
			}
		}
		return false
	}
	u := c.Universe()
	u.Cells(func(_ uint64, p grid.Point) bool {
		if b.Contains(p) != inSome(c.Index(p)) {
			t.Fatalf("curve %s: cell %v coverage mismatch", c.Name(), p)
		}
		return true
	})
}

func TestDecomposeBoxAllCurvesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dk := range [][2]int{{1, 4}, {2, 3}, {3, 2}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range allCurves(t, u) {
			for trial := 0; trial < 25; trial++ {
				lo := u.NewPoint()
				hi := u.NewPoint()
				for i := range lo {
					a := uint32(rng.Intn(int(u.Side())))
					b := uint32(rng.Intn(int(u.Side())))
					if a > b {
						a, b = b, a
					}
					lo[i], hi[i] = a, b
				}
				b, err := NewBox(u, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				intervalsCover(t, c, b, DecomposeBox(c, b))
			}
		}
	}
}

func TestDecomposeMatchesBruteForAllCurves(t *testing.T) {
	// The specialized decompositions must agree interval-for-interval with
	// the always-correct brute enumeration.
	u := grid.MustNew(2, 4)
	b, err := NewBox(u, u.MustPoint(3, 2), u.MustPoint(12, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range allCurves(t, u) {
		fast := DecomposeBox(c, b)
		brute := MergeIntervals(bruteDecompose(c, b))
		if len(fast) != len(brute) {
			t.Fatalf("%s: %d intervals, brute %d", c.Name(), len(fast), len(brute))
		}
		for i := range fast {
			if fast[i] != brute[i] {
				t.Fatalf("%s: interval %d = %v, brute %v", c.Name(), i, fast[i], brute[i])
			}
		}
	}
}

func TestDecomposeWholeUniverseIsOneInterval(t *testing.T) {
	u := grid.MustNew(3, 2)
	lo := u.NewPoint()
	hi := u.MustPoint(3, 3, 3)
	b, err := NewBox(u, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range allCurves(t, u) {
		ivs := DecomposeBox(c, b)
		if len(ivs) != 1 || ivs[0].Lo != 0 || ivs[0].Hi != u.N() {
			t.Errorf("%s: whole universe decomposes to %v", c.Name(), ivs)
		}
	}
}

func TestMergeIntervals(t *testing.T) {
	got := MergeIntervals([]Interval{{5, 7}, {0, 2}, {2, 4}, {6, 9}, {12, 13}})
	want := []Interval{{0, 4}, {5, 9}, {12, 13}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if out := MergeIntervals(nil); len(out) != 0 {
		t.Fatal("merge nil")
	}
}

func TestClipIntervals(t *testing.T) {
	ivs := []Interval{{2, 5}, {8, 12}, {20, 30}}
	for _, tc := range []struct {
		name   string
		in     []Interval
		lo, hi uint64
		want   []Interval
	}{
		{"nil input", nil, 0, 10, nil},
		{"segment before everything", ivs, 0, 2, nil},
		{"segment in a gap", ivs, 5, 8, nil},
		{"segment after everything", ivs, 30, 40, nil},
		{"empty segment", ivs, 9, 9, nil},
		{"segment covers everything", ivs, 0, 100, ivs},
		{"interval straddles lo", ivs, 3, 100, []Interval{{3, 5}, {8, 12}, {20, 30}}},
		{"interval straddles hi", ivs, 0, 10, []Interval{{2, 5}, {8, 10}}},
		{"one interval straddles both ends", ivs, 21, 29, []Interval{{21, 29}}},
		{"lo and hi in different intervals", ivs, 4, 25, []Interval{{4, 5}, {8, 12}, {20, 25}}},
		{"interval ending at lo is dropped", ivs, 5, 9, []Interval{{8, 9}}},
		// The early break trusts sorted input: an interval placed after one
		// that starts at or past hi is never looked at.
		{"stops at the first interval past hi", []Interval{{2, 5}, {40, 50}, {6, 7}}, 0, 10, []Interval{{2, 5}}},
	} {
		got := ClipIntervals(tc.in, tc.lo, tc.hi)
		if len(got) != len(tc.want) {
			t.Errorf("%s: clip to [%d, %d) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: clip to [%d, %d) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
				break
			}
		}
	}
}

func randomPoints(u *grid.Universe, n int, seed int64) []grid.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]grid.Point, n)
	for i := range pts {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		pts[i] = p
	}
	return pts
}

func TestRangeQueryMatchesLinearScan(t *testing.T) {
	u := grid.MustNew(2, 4)
	pts := randomPoints(u, 400, 77)
	b, err := NewBox(u, u.MustPoint(2, 3), u.MustPoint(11, 13))
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, p := range pts {
		if b.Contains(p) {
			want++
		}
	}
	for _, c := range allCurves(t, u) {
		ix, err := Build(c, pts)
		if err != nil {
			t.Fatal(err)
		}
		got, st := ix.Range(b)
		if len(got) != want {
			t.Errorf("%s: range returned %d, scan %d", c.Name(), len(got), want)
		}
		for _, p := range got {
			if !b.Contains(p) {
				t.Errorf("%s: returned point %v outside box", c.Name(), p)
			}
		}
		if st.Matched != len(got) || st.Scanned != st.Matched || st.Intervals == 0 {
			t.Errorf("%s: bad stats %+v", c.Name(), st)
		}
		if ix.Count(b) != want {
			t.Errorf("%s: Count = %d, want %d", c.Name(), ix.Count(b), want)
		}
	}
}

func TestBuildRejectsOutsidePoints(t *testing.T) {
	u := grid.MustNew(2, 2)
	z := curve.NewZ(u)
	if _, err := Build(z, []grid.Point{{9, 0}}); err == nil {
		t.Fatal("outside point accepted")
	}
}

func TestNearestMatchesLinearScan(t *testing.T) {
	u := grid.MustNew(2, 4)
	pts := randomPoints(u, 60, 3)
	rng := rand.New(rand.NewSource(8))
	for _, c := range allCurves(t, u) {
		ix, err := Build(c, pts)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != 60 || ix.Curve() != c {
			t.Fatal("accessors wrong")
		}
		for trial := 0; trial < 40; trial++ {
			q := u.NewPoint()
			for j := range q {
				q[j] = uint32(rng.Intn(int(u.Side())))
			}
			got, gotDist, err := ix.Nearest(q)
			if err != nil {
				t.Fatal(err)
			}
			best := math.Inf(1)
			for _, p := range pts {
				if d := grid.Euclidean(q, p); d < best {
					best = d
				}
			}
			if math.Abs(gotDist-best) > 1e-9 {
				t.Fatalf("%s: nearest(%v) = %v at %v, want distance %v", c.Name(), q, got, gotDist, best)
			}
			if grid.Euclidean(q, got) != gotDist {
				t.Fatalf("reported distance inconsistent")
			}
		}
	}
}

func TestNearestSparse(t *testing.T) {
	// A single far-away point: the radius doubling must reach it.
	u := grid.MustNew(2, 5)
	z := curve.NewZ(u)
	ix, err := Build(z, []grid.Point{u.MustPoint(31, 31)})
	if err != nil {
		t.Fatal(err)
	}
	p, dist, err := ix.Nearest(u.MustPoint(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(u.MustPoint(31, 31)) || math.Abs(dist-math.Sqrt(2*31.0*31.0)) > 1e-9 {
		t.Fatalf("nearest = %v at %v", p, dist)
	}
}

func TestKNearestMatchesLinearScan(t *testing.T) {
	u := grid.MustNew(2, 4)
	pts := randomPoints(u, 80, 21)
	rng := rand.New(rand.NewSource(4))
	for _, c := range allCurves(t, u) {
		ix, err := Build(c, pts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			q := u.NewPoint()
			for j := range q {
				q[j] = uint32(rng.Intn(int(u.Side())))
			}
			k := 1 + rng.Intn(10)
			got, dists, err := ix.KNearest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k || len(dists) != k {
				t.Fatalf("%s: got %d points for k=%d", c.Name(), len(got), k)
			}
			// Reference: sort all distances.
			all := make([]float64, len(pts))
			for i, p := range pts {
				all[i] = grid.Euclidean(q, p)
			}
			sortFloats(all)
			for i := 0; i < k; i++ {
				if math.Abs(dists[i]-all[i]) > 1e-9 {
					t.Fatalf("%s: k-nn dist[%d] = %v, want %v", c.Name(), i, dists[i], all[i])
				}
				if grid.Euclidean(q, got[i]) != dists[i] {
					t.Fatalf("reported distance inconsistent")
				}
				if i > 0 && dists[i] < dists[i-1] {
					t.Fatalf("results not sorted")
				}
			}
		}
	}
}

func TestKNearestClampsAndValidates(t *testing.T) {
	u := grid.MustNew(2, 3)
	z := curve.NewZ(u)
	ix, err := Build(z, randomPoints(u, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.KNearest(u.MustPoint(0, 0), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("clamped k returned %d", len(got))
	}
	if _, _, err := ix.KNearest(u.MustPoint(0, 0), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	empty, err := Build(z, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.KNearest(u.MustPoint(0, 0), 1); !errors.Is(err, ErrEmptyIndex) {
		t.Fatalf("empty index: err = %v, want ErrEmptyIndex", err)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestNearestEmpty(t *testing.T) {
	u := grid.MustNew(2, 2)
	ix, err := Build(curve.NewZ(u), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Nearest(u.MustPoint(0, 0)); !errors.Is(err, ErrEmptyIndex) {
		t.Fatalf("nearest on empty index: err = %v, want ErrEmptyIndex", err)
	}
}

func TestHilbertBeatsZOnSquareBoxes(t *testing.T) {
	// Database-facing consequence of Moon et al.'s analysis: on square
	// boxes the Hilbert decomposition produces (on average) fewer intervals
	// than the Z curve's. (Row-major curves are *not* dominated here — a
	// q×q box is only q row-runs versus ~perimeter/2 for Hilbert — which is
	// exactly why clustering and NN-stretch are different metrics; the
	// ext-cluster experiment reports both.)
	u := grid.MustNew(2, 5)
	hil := curve.NewHilbert(u)
	zc := curve.NewZ(u)
	rng := rand.New(rand.NewSource(55))
	var sumH, sumZ int
	for trial := 0; trial < 50; trial++ {
		size := uint32(4 + rng.Intn(8))
		x := uint32(rng.Intn(int(u.Side() - size)))
		y := uint32(rng.Intn(int(u.Side() - size)))
		b, err := NewBox(u, u.MustPoint(x, y), u.MustPoint(x+size-1, y+size-1))
		if err != nil {
			t.Fatal(err)
		}
		sumH += len(DecomposeBox(hil, b))
		sumZ += len(DecomposeBox(zc, b))
	}
	if sumH >= sumZ {
		t.Errorf("hilbert intervals %d not < z intervals %d over square boxes", sumH, sumZ)
	}
}
