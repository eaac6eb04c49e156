package store

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
)

// boxQuerySeedPath replicates the pre-device box query — records scanned
// straight out of the flat in-memory arrays — as the baseline the device
// indirection is measured against. It must stay behaviorally identical to
// ScanBox on the default device.
func (st *Store) boxQuerySeedPath(b query.Box) []Record {
	var out []Record
	touched := map[int]bool{}
	for _, iv := range query.DecomposeBox(st.c, b) {
		lo := st.descend(iv.Lo)
		for i := lo; i < len(st.keys) && st.keys[i] < iv.Hi; i++ {
			page := i / st.pageSize
			if !touched[page] {
				touched[page] = true
				st.stats.leafReads.Add(1)
			}
			out = append(out, st.records[i])
		}
	}
	return out
}

func benchStore(tb testing.TB) (*Store, []query.Box) {
	tb.Helper()
	u := grid.MustNew(2, 6)
	h := curve.NewHilbert(u)
	rng := rand.New(rand.NewSource(21))
	recs := make([]Record, 6000)
	for i := range recs {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		recs[i] = Record{Point: p, Payload: uint64(i)}
	}
	st, err := Bulkload(h, recs, WithPageSize(32), WithFanout(16))
	if err != nil {
		tb.Fatal(err)
	}
	var boxes []query.Box
	for x := uint32(0); x+16 <= u.Side(); x += 16 {
		for y := uint32(0); y+16 <= u.Side(); y += 16 {
			box, err := query.NewBox(u, u.MustPoint(x+1, y+2), u.MustPoint(x+12, y+13))
			if err != nil {
				tb.Fatal(err)
			}
			boxes = append(boxes, box)
		}
	}
	return st, boxes
}

// BenchmarkStoreFaultFree records the cost of the PageDevice indirection on
// fault-free reads: "seedpath" is the pre-device flat-array scan, "device"
// the same queries through the default MemDevice, "degraded" the
// degraded-mode entry point with nothing failing. The perf trajectory
// requirement is device ≤ 1.05 × seedpath.
func BenchmarkStoreFaultFree(b *testing.B) {
	st, boxes := benchStore(b)
	ctx := context.Background()
	var sink int
	b.Run("seedpath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += len(st.boxQuerySeedPath(boxes[i%len(boxes)]))
		}
	})
	b.Run("device", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := st.ScanBox(ctx, boxes[i%len(boxes)], ScanStrict())
			if err != nil {
				b.Fatal(err)
			}
			sink += len(out.Records)
		}
	})
	b.Run("degraded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += len(st.BoxQuery(boxes[i%len(boxes)]))
		}
	})
	_ = sink
}

// TestSeedPathParity pins the benchmark baseline to the device path: both
// must return identical records so the benchmark compares equal work.
func TestSeedPathParity(t *testing.T) {
	st, boxes := benchStore(t)
	for _, box := range boxes {
		want := st.boxQuerySeedPath(box)
		res, err := st.ScanBox(context.Background(), box, ScanStrict())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Records
		if len(want) != len(got) {
			t.Fatalf("seed path %d records, device path %d", len(want), len(got))
		}
		for i := range want {
			if !want[i].Point.Equal(got[i].Point) || want[i].Payload != got[i].Payload {
				t.Fatalf("record %d differs between seed path and device path", i)
			}
		}
	}
}
