package store

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
)

func randomRecords(u *grid.Universe, n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		recs[i] = Record{Point: p, Payload: uint64(i)}
	}
	return recs
}

func TestBulkloadValidation(t *testing.T) {
	u := grid.MustNew(2, 3)
	z := curve.NewZ(u)
	if _, err := Bulkload(z, []Record{{Point: grid.Point{99, 0}}}); err == nil {
		t.Fatal("out-of-universe record accepted")
	}
	if _, err := Bulkload(z, nil, WithPageSize(1)); err == nil {
		t.Fatal("page size 1 accepted")
	}
	if _, err := Bulkload(z, nil, WithFanout(1)); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	st, err := Bulkload(z, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatal("empty store has records")
	}
}

func TestRecordsSortedAndComplete(t *testing.T) {
	u := grid.MustNew(2, 5)
	h := curve.NewHilbert(u)
	recs := randomRecords(u, 3000, 1)
	st, err := Bulkload(h, recs, WithPageSize(16), WithFanout(8))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3000 {
		t.Fatalf("Len = %d", st.Len())
	}
	for i := 1; i < len(st.keys); i++ {
		if st.keys[i] < st.keys[i-1] {
			t.Fatal("keys not sorted")
		}
	}
	// Payload multiset preserved and keys aligned with record cells.
	seen := make([]bool, 3000)
	for slot, r := range st.records {
		if seen[r.Payload] {
			t.Fatal("payload duplicated")
		}
		seen[r.Payload] = true
		if h.Index(r.Point) != st.keys[slot] {
			t.Fatalf("slot %d: key %d, record cell maps to %d", slot, st.keys[slot], h.Index(r.Point))
		}
	}
	if st.Height() < 2 {
		t.Fatalf("height %d for 188 leaves at fanout 8", st.Height())
	}
}

func TestBoxQueryMatchesScan(t *testing.T) {
	u := grid.MustNew(2, 5)
	recs := randomRecords(u, 2000, 7)
	b, err := query.NewBox(u, u.MustPoint(5, 9), u.MustPoint(20, 27))
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, r := range recs {
		if b.Contains(r.Point) {
			want++
		}
	}
	for _, name := range curve.Names() {
		c, err := curve.ByName(name, u, 3)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Bulkload(c, recs, WithPageSize(32), WithFanout(16))
		if err != nil {
			t.Fatal(err)
		}
		got := st.BoxQuery(b)
		if len(got) != want {
			t.Errorf("%s: box query %d records, scan %d", name, len(got), want)
		}
		for _, r := range got {
			if !b.Contains(r.Point) {
				t.Errorf("%s: record %v outside box", name, r.Point)
			}
		}
		stats := st.Stats()
		if stats.Descents == 0 || stats.InnerReads == 0 || (want > 0 && stats.LeafReads == 0) {
			t.Errorf("%s: degenerate stats %+v", name, stats)
		}
	}
}

func TestPointQuery(t *testing.T) {
	u := grid.MustNew(2, 4)
	z := curve.NewZ(u)
	recs := []Record{
		{Point: u.MustPoint(3, 4), Payload: 1},
		{Point: u.MustPoint(3, 4), Payload: 2},
		{Point: u.MustPoint(9, 9), Payload: 3},
	}
	st, err := Bulkload(z, recs, WithPageSize(2), WithFanout(2))
	if err != nil {
		t.Fatal(err)
	}
	got := st.PointQuery(u.MustPoint(3, 4))
	if len(got) != 2 {
		t.Fatalf("point query returned %d", len(got))
	}
	if miss := st.PointQuery(u.MustPoint(0, 0)); len(miss) != 0 {
		t.Fatal("miss returned records")
	}
	if st.Stats().Descents != 2 {
		t.Fatalf("descents %d", st.Stats().Descents)
	}
	st.ResetStats()
	if st.Stats().Total() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestBoxQueryIOFragmentationOrdering(t *testing.T) {
	// The I/O cost tracks the clustering metric: for square boxes the
	// Hilbert store does fewer descents (fewer intervals) than the Z store.
	u := grid.MustNew(2, 6)
	recs := randomRecords(u, 6000, 11)
	run := func(name string) Stats {
		c, err := curve.ByName(name, u, 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Bulkload(c, recs, WithPageSize(32), WithFanout(16))
		if err != nil {
			t.Fatal(err)
		}
		for x := uint32(0); x+16 <= u.Side(); x += 16 {
			for y := uint32(0); y+16 <= u.Side(); y += 16 {
				b, err := query.NewBox(u, u.MustPoint(x+1, y+2), u.MustPoint(x+12, y+13))
				if err != nil {
					t.Fatal(err)
				}
				st.BoxQuery(b)
			}
		}
		return st.Stats()
	}
	hs := run("hilbert")
	zs := run("z")
	if hs.Descents >= zs.Descents {
		t.Errorf("hilbert descents %d not below z %d", hs.Descents, zs.Descents)
	}
}

func TestNeighborSweepLocalityOrdering(t *testing.T) {
	// With a small LRU cache, the stencil sweep faults far more under the
	// random bijection than under any structured curve — the store-level
	// restatement of the paper's stretch story.
	u := grid.MustNew(2, 5)
	recs := randomRecords(u, 4000, 13)
	run := func(name string) int {
		c, err := curve.ByName(name, u, 5)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Bulkload(c, recs, WithPageSize(32), WithFanout(16))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := st.NeighborSweep(8)
		if err != nil {
			t.Fatal(err)
		}
		return stats.LeafReads
	}
	random := run("random")
	for _, name := range []string{"hilbert", "z", "snake", "simple"} {
		if faults := run(name); faults*2 > random {
			t.Errorf("%s sweep faults %d not ≪ random %d", name, faults, random)
		}
	}
	// Cache validation.
	c := curve.NewZ(u)
	st, err := Bulkload(c, recs[:10])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.NeighborSweep(0); err == nil {
		t.Fatal("cache of 0 pages accepted")
	}
}

func TestLRU(t *testing.T) {
	l := newLRU(2)
	hit := func(page int) bool { h, _ := l.access(page); return h }
	if hit(1) {
		t.Fatal("cold hit")
	}
	if !hit(1) {
		t.Fatal("warm miss")
	}
	hit(2)
	if _, evicted := l.access(3); evicted != 1 {
		t.Fatalf("admitting 3 evicted %d, want 1", evicted)
	}
	if hit(1) {
		t.Fatal("evicted page hit")
	}
	if !hit(3) || !hit(1) {
		t.Fatal("resident pages missed")
	}
	if hit(2) {
		t.Fatal("page 2 should have been evicted by re-admitting 1")
	}
}

// TestCursorCloseLeavesNoRecordInItsBuffer: a buffer on the free list must
// not pin store pages, so Close zeroes every record slot the cursor ever
// filled — also those beyond the last batch's length.
func TestCursorCloseLeavesNoRecordInItsBuffer(t *testing.T) {
	u := grid.MustNew(2, 5)
	st, err := Bulkload(curve.NewHilbert(u), randomRecords(u, 3000, 2), WithPageSize(16), WithFanout(8))
	if err != nil {
		t.Fatal(err)
	}
	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	ctx := context.Background()
	for _, drain := range []bool{false, true} {
		cur, err := st.ScanCursor(full, ScanBatchSize(700))
		if err != nil {
			t.Fatal(err)
		}
		// A long first batch, then (when draining) shorter ones on the way
		// to io.EOF: the used prefix is longer than the final length.
		for n := 0; n == 0 || drain; n++ {
			if _, err := cur.Next(ctx); err != nil {
				break
			}
		}
		buf := cur.(*storeCursor).out
		cur.Close()
		for i, r := range buf.recs[:cap(buf.recs)] {
			if r.Point != nil || r.Payload != 0 {
				t.Fatalf("drain=%v: slot %d of a released buffer still holds %v", drain, i, r)
			}
		}
	}
}
