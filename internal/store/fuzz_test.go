package store_test

import (
	"context"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// FuzzBulkload drives Bulkload with arbitrary record sets — duplicates,
// empty input, out-of-universe points — and arbitrary page geometry.
// Construction must never panic: it either rejects the input with an error
// (exactly when a record leaves the universe or the geometry is invalid) or
// builds a store that serves every record back through a full-box query.
func FuzzBulkload(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(4))
	f.Add([]byte{1, 2, 3, 4, 1, 2}, uint8(2), uint8(2))       // duplicates
	f.Add([]byte{200, 1, 0, 0}, uint8(8), uint8(4))           // out of universe
	f.Add([]byte{7, 7, 0, 7, 7, 0, 3, 3}, uint8(1), uint8(3)) // page size 1 -> error
	f.Add([]byte{5, 5}, uint8(0), uint8(0))                   // defaults
	f.Fuzz(func(t *testing.T, data []byte, pageSize, fanout uint8) {
		u := grid.MustNew(2, 3) // side 8: bytes >= 8 fall outside
		z := curve.NewZ(u)
		recs := make([]store.Record, 0, len(data)/2)
		inUniverse := true
		for i := 0; i+1 < len(data); i += 2 {
			p := grid.Point{uint32(data[i]), uint32(data[i+1])}
			if !u.Contains(p) {
				inUniverse = false
			}
			recs = append(recs, store.Record{Point: p, Payload: uint64(i)})
		}
		var opts []store.Option // zero means "leave the default"
		if pageSize != 0 {
			opts = append(opts, store.WithPageSize(int(pageSize)))
		}
		if fanout != 0 {
			opts = append(opts, store.WithFanout(int(fanout)))
		}
		st, err := store.Bulkload(z, recs, opts...)
		wantErr := !inUniverse || pageSize == 1 || fanout == 1
		if (err != nil) != wantErr {
			t.Fatalf("Bulkload(%d recs, ps=%d, fo=%d): err=%v, wantErr=%v", len(recs), pageSize, fanout, err, wantErr)
		}
		if err != nil {
			return
		}
		if st.Len() != len(recs) {
			t.Fatalf("Len = %d, loaded %d", st.Len(), len(recs))
		}
		full, err := query.NewBox(u, u.NewPoint(), u.MustPoint(u.Side()-1, u.Side()-1))
		if err != nil {
			t.Fatal(err)
		}
		strict, err := st.ScanBox(context.Background(), full, store.ScanStrict())
		if err != nil {
			t.Fatalf("full-box query on default device: %v", err)
		}
		got := strict.Records
		if len(got) != len(recs) {
			t.Fatalf("full box returned %d of %d records", len(got), len(recs))
		}
		// Payload multiset preserved (payloads are distinct by construction).
		seen := map[uint64]bool{}
		for _, r := range got {
			if seen[r.Payload] {
				t.Fatalf("payload %d duplicated", r.Payload)
			}
			seen[r.Payload] = true
		}
		deg, err := st.ScanBox(context.Background(), full)
		if err != nil {
			t.Fatal(err)
		}
		if !deg.Complete() || len(deg.Records) != len(recs) {
			t.Fatalf("degraded full box: %d records, %d dark intervals", len(deg.Records), len(deg.Unavailable))
		}
	})
}
