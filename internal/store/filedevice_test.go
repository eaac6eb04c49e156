package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
)

func testBox(rng *rand.Rand, u *grid.Universe) query.Box {
	lo := u.NewPoint()
	hi := u.NewPoint()
	for j := range lo {
		a := uint32(rng.Intn(int(u.Side())))
		b := uint32(rng.Intn(int(u.Side())))
		if a > b {
			a, b = b, a
		}
		lo[j], hi[j] = a, b
	}
	b, err := query.NewBox(u, lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// TestFileRoundTripIdentical is the differential property the durable path
// rests on: Bulkload → WriteFile → OpenFile yields a store record-for-record
// identical to the in-memory one — same page count, same per-page checksums,
// same index levels, and identical scan results over random boxes.
func TestFileRoundTripIdentical(t *testing.T) {
	ctx := context.Background()
	for _, d := range []int{1, 2, 3} {
		u := grid.MustNew(d, 4)
		h := curve.NewHilbert(u)
		recs := randomRecords(u, 900, int64(d))
		mem, err := Bulkload(h, recs, WithPageSize(8), WithFanout(4))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run-000001.sfc")
		if err := mem.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		file, err := OpenFile(path, h, WithFanout(4))
		if err != nil {
			t.Fatal(err)
		}
		defer file.CloseDevice()

		if file.Len() != mem.Len() || file.NumPages() != mem.NumPages() {
			t.Fatalf("d=%d: len/pages %d/%d, want %d/%d", d, file.Len(), file.NumPages(), mem.Len(), mem.NumPages())
		}
		if !reflect.DeepEqual(file.keys, mem.keys) {
			t.Fatalf("d=%d: key columns differ", d)
		}
		if !reflect.DeepEqual(file.sums, mem.sums) {
			t.Fatalf("d=%d: per-page checksums differ", d)
		}
		if !reflect.DeepEqual(file.levels, mem.levels) {
			t.Fatalf("d=%d: index levels differ", d)
		}
		// Record-for-record: every page decodes to the exact in-memory page.
		for id := 0; id < mem.NumPages(); id++ {
			mp, err := mem.fetchPage(id)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := file.fetchPage(id)
			if err != nil {
				t.Fatalf("d=%d: file page %d: %v", d, id, err)
			}
			if !reflect.DeepEqual(mp, fp) {
				t.Fatalf("d=%d: page %d differs between devices", d, id)
			}
		}
		rng := rand.New(rand.NewSource(int64(d) * 17))
		for q := 0; q < 12; q++ {
			b := testBox(rng, u)
			want, err := mem.ScanBox(ctx, b, ScanStrict())
			if err != nil {
				t.Fatal(err)
			}
			got, err := file.ScanBox(ctx, b, ScanStrict())
			if err != nil {
				t.Fatalf("d=%d: file scan: %v", d, err)
			}
			if !reflect.DeepEqual(want.Records, got.Records) {
				t.Fatalf("d=%d box %d: file-backed records differ from in-memory", d, q)
			}
			if want.PagesRead != got.PagesRead {
				t.Fatalf("d=%d box %d: PagesRead %d vs %d", d, q, got.PagesRead, want.PagesRead)
			}
		}
	}
}

// TestFileRoundTripEmpty: a store with zero records survives the disk round
// trip too.
func TestFileRoundTripEmpty(t *testing.T) {
	u := grid.MustNew(2, 3)
	z := curve.NewZ(u)
	mem, err := Bulkload(z, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.sfc")
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := OpenFile(path, z)
	if err != nil {
		t.Fatal(err)
	}
	defer file.CloseDevice()
	if file.Len() != 0 || file.NumPages() != 0 {
		t.Fatalf("len=%d pages=%d", file.Len(), file.NumPages())
	}
	res, err := file.Scan(context.Background(), []query.Interval{{Lo: 0, Hi: u.N()}}, ScanStrict())
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("scan over empty file store: %d records, %v", len(res.Records), err)
	}
}

// TestWriteFileFromFileBackedStore: a store whose records live only on disk
// (opened with OpenFile) re-serializes byte-identically — WriteFile reads
// the pages back through the device.
func TestWriteFileFromFileBackedStore(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	recs := randomRecords(u, 500, 9)
	mem, err := Bulkload(h, recs, WithPageSize(8), WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.sfc")
	p2 := filepath.Join(dir, "b.sfc")
	if err := mem.WriteFile(p1); err != nil {
		t.Fatal(err)
	}
	file, err := OpenFile(p1, h, WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	defer file.CloseDevice()
	if file.records != nil {
		t.Fatal("file-backed store retains record content in RAM")
	}
	if err := file.WriteFile(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("re-serialized run differs from the original")
	}
}

// TestOpenFileDetectsCorruption: any single corrupted byte anywhere in the
// file — header, records, checksum table, trailer — must be rejected at
// open, never served.
func TestOpenFileDetectsCorruption(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	mem, err := Bulkload(h, randomRecords(u, 120, 3), WithPageSize(8), WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.sfc")
	if err := mem.WriteFile(clean); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	offsets := []int{0, 9, 20, runHeaderSize + 3, len(data) - 5}
	for i := 0; i < 40; i++ {
		offsets = append(offsets, rng.Intn(len(data)))
	}
	for _, off := range offsets {
		bad := append([]byte(nil), data...)
		bad[off] ^= 1 << uint(rng.Intn(8))
		p := filepath.Join(dir, "bad.sfc")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := OpenFile(p, h); err == nil {
			st.CloseDevice()
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
	// Truncations are rejected too.
	for _, n := range []int{0, 1, runHeaderSize - 1, runHeaderSize, len(data) - 1} {
		p := filepath.Join(dir, "short.sfc")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := OpenFile(p, h); err == nil {
			st.CloseDevice()
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// corruptingDevice flips a payload bit in one page after it leaves the
// device — simulating rot between the platter and the page cache.
type corruptingDevice struct {
	PageDevice
	page int
}

func (c *corruptingDevice) ReadPage(id int) (Page, error) {
	pg, err := c.PageDevice.ReadPage(id)
	if err == nil && id == c.page && len(pg.Records) > 0 {
		rs := make([]Record, len(pg.Records))
		copy(rs, pg.Records)
		rs[0] = Record{Point: rs[0].Point, Payload: rs[0].Payload ^ 1}
		pg = Page{ID: pg.ID, Keys: pg.Keys, Records: rs}
	}
	return pg, err
}

// TestFileBackedChecksumVerification: a page corrupted in flight is caught
// by the store's checksum verification and surfaces as ErrPageUnavailable
// under ScanStrict — the file-backed path inherits the full read-integrity
// machinery.
func TestFileBackedChecksumVerification(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	mem, err := Bulkload(h, randomRecords(u, 300, 5), WithPageSize(8), WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.sfc")
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := OpenFile(path, h,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}),
		WithDeviceWrapper(func(dev PageDevice) (PageDevice, error) {
			return &corruptingDevice{PageDevice: dev, page: 0}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer file.CloseDevice()
	whole := []query.Interval{{Lo: 0, Hi: u.N()}}
	if _, err := file.Scan(context.Background(), whole, ScanStrict()); !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("strict scan over corrupted page: %v, want ErrPageUnavailable", err)
	}
	res, err := file.Scan(context.Background(), whole)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("degraded scan reports complete over a corrupted page")
	}
}

// TestOpenFileValidation: geometry conflicts and misuse are rejected up
// front with clear errors.
func TestOpenFileValidation(t *testing.T) {
	u := grid.MustNew(2, 4)
	h := curve.NewHilbert(u)
	mem, err := Bulkload(h, randomRecords(u, 100, 1), WithPageSize(8), WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.sfc")
	if err := mem.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, h, WithPageSize(16)); err == nil {
		t.Fatal("conflicting WithPageSize accepted")
	}
	if st, err := OpenFile(path, h, WithPageSize(8)); err != nil {
		t.Fatalf("agreeing WithPageSize rejected: %v", err)
	} else {
		st.CloseDevice()
	}
	if _, err := OpenFile(path, h, WithDevice(&MemDevice{})); err == nil {
		t.Fatal("WithDevice accepted by OpenFile")
	}
	u3 := grid.MustNew(3, 4)
	if _, err := OpenFile(path, curve.NewZ(u3)); err == nil {
		t.Fatal("2-d run opened under a 3-d curve")
	}
	// A run carrying tombstones is not a plain read-only store.
	tp := filepath.Join(dir, "tombs.sfc")
	tk := []uint64{3}
	tr := []Record{{Point: grid.Point{1, 1}, Payload: 0}}
	if err := writeRun(tp, runHeader{d: 2, pageSize: 8}, nil, nil, tk, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(tp, h); err == nil {
		t.Fatal("tombstone-carrying run opened as a plain store")
	}
}
