package faultio_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wal"
)

func shortReadStore(t *testing.T, seed int64) (*store.Store, *faultio.Injector, *grid.Universe) {
	t.Helper()
	u := grid.MustNew(2, 4)
	z := curve.NewZ(u)
	rng := rand.New(rand.NewSource(3))
	recs := make([]store.Record, 500)
	for i := range recs {
		p := u.NewPoint()
		for j := range p {
			p[j] = uint32(rng.Intn(int(u.Side())))
		}
		recs[i] = store.Record{Point: p, Payload: uint64(i)}
	}
	var inj *faultio.Injector
	st, err := store.Bulkload(z, recs, store.WithPageSize(8), store.WithFanout(4),
		store.WithDeviceWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
			var err error
			inj, err = faultio.Wrap(dev, faultio.Config{Seed: seed, ShortReadProb: 0.5})
			return inj, err
		}))
	if err != nil {
		t.Fatal(err)
	}
	return st, inj, u
}

// TestShortReadsDetectedByChecksum: every injected short read must be caught
// by the store's page checksum — a truncated page is never served as data.
func TestShortReadsDetectedByChecksum(t *testing.T) {
	st, inj, u := shortReadStore(t, 21)
	whole := []query.Interval{{Lo: 0, Hi: u.N()}}
	res, err := st.Scan(context.Background(), whole)
	if err != nil {
		t.Fatal(err)
	}
	c := inj.Counters()
	if c.ShortReads == 0 {
		t.Fatal("no short reads injected at prob 0.5")
	}
	if got := uint64(st.Stats().ChecksumFailures); got != c.ShortReads {
		t.Fatalf("%d short reads injected, %d checksum failures — a truncated page slipped through", c.ShortReads, got)
	}
	// Whatever was served is intact: every returned record carries a payload
	// the store actually holds, in full.
	for _, r := range res.Records {
		if r.Payload >= 500 {
			t.Fatalf("served record with foreign payload %d", r.Payload)
		}
	}
	// Same seed, same schedule.
	st2, inj2, _ := shortReadStore(t, 21)
	if _, err := st2.Scan(context.Background(), whole); err != nil {
		t.Fatal(err)
	}
	if inj.Counters().ShortReads != inj2.Counters().ShortReads {
		t.Fatal("short-read schedule not reproducible from seed")
	}
}

// TestFaultFileTornWrite: a torn write persists a strict prefix and reports
// ErrInjectedWrite; the WAL's repair turns it into a clean unacked entry.
func TestFaultFileTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	var ff *faultio.FaultFile
	wrap := func(f wal.File) wal.File {
		w, err := faultio.WrapFile(f, faultio.FileConfig{Seed: 5, TornWriteProb: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		ff = w
		return w
	}
	l, err := wal.Create(path, wrap)
	if err != nil {
		t.Fatal(err)
	}
	var acked []wal.Entry
	var torn int
	for i := 1; i <= 60; i++ {
		e := wal.Entry{Seq: uint64(i), Kind: wal.KindPut, Key: uint64(i), Point: grid.Point{uint32(i % 16), 0}, Payload: uint64(i)}
		err := l.Append(e)
		switch {
		case err == nil:
			acked = append(acked, e)
		case errors.Is(err, faultio.ErrInjectedWrite):
			torn++
		default:
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
	}
	if torn == 0 {
		t.Fatal("no torn writes at prob 0.4 over 60 appends")
	}
	if c := ff.Counters(); c.TornWrites != uint64(torn) {
		t.Fatalf("counters %+v, saw %d torn appends", c, torn)
	}
	l.Close()
	// Reopen without faults: exactly the acked entries replay.
	l2, replayed, tornBytes, err := wal.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tornBytes != 0 {
		t.Fatalf("repaired log reports %d torn bytes on reopen", tornBytes)
	}
	if !reflect.DeepEqual(replayed, acked) {
		t.Fatalf("replayed %d entries, acked %d — repair leaked or lost entries", len(replayed), len(acked))
	}
}

// TestFaultFileFsyncErrors: an entry whose sync failed is unacked, even
// though its bytes may be durable; the WAL's truncate-repair must not let
// recovery resurrect it.
func TestFaultFileFsyncErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000001.log")
	wrap := func(f wal.File) wal.File {
		w, err := faultio.WrapFile(f, faultio.FileConfig{Seed: 9, FsyncErrProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	l, err := wal.Create(path, wrap)
	if err != nil {
		t.Fatal(err)
	}
	var acked []wal.Entry
	fsyncErrs := 0
	for i := 1; i <= 50; i++ {
		e := wal.Entry{Seq: uint64(i), Kind: wal.KindPut, Key: uint64(i), Point: grid.Point{1, 1}, Payload: uint64(i)}
		err := l.Append(e)
		switch {
		case err == nil:
			acked = append(acked, e)
		case errors.Is(err, faultio.ErrInjectedFsync):
			fsyncErrs++
		default:
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if fsyncErrs == 0 {
		t.Fatal("no fsync errors at prob 0.3 over 50 appends")
	}
	l.Close()
	l2, replayed, _, err := wal.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(replayed, acked) {
		t.Fatalf("replayed %d, acked %d — unacked entry resurrected or acked entry lost", len(replayed), len(acked))
	}
}

// TestFaultFileComposesWithDurable drives the whole write path under both
// torn writes and fsync failures: the durable store recovers exactly the
// set of operations it acknowledged.
func TestFaultFileComposesWithDurable(t *testing.T) {
	u := grid.MustNew(2, 4)
	z := curve.NewZ(u)
	dir := t.TempDir()
	wrap := func(f wal.File) wal.File {
		w, err := faultio.WrapFile(f, faultio.FileConfig{Seed: 33, TornWriteProb: 0.15, FsyncErrProb: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	d, err := store.OpenDurable(dir, z, store.WithWALWrapper(wrap), store.WithMemLimit(16), store.WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var acked []store.Record
	for i := 0; i < 120; i++ {
		r := store.Record{Point: grid.Point{uint32(i % 16), uint32(i / 16 % 16)}, Payload: uint64(i)}
		if err := d.Put(ctx, r); err == nil {
			acked = append(acked, r)
		}
	}
	if len(acked) == 120 {
		t.Fatal("no write faults fired at prob 0.15+0.15")
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2, err := store.OpenDurable(dir, z, store.WithAutoCompact(false))
	if err != nil {
		t.Fatalf("recovery after write faults: %v", err)
	}
	defer d2.Close()
	res, err := d2.Scan(ctx, []query.Interval{{Lo: 0, Hi: u.N()}}, store.ScanStrict())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(acked) {
		t.Fatalf("recovered %d records, acked %d", len(res.Records), len(acked))
	}
	got := map[uint64]bool{}
	for _, r := range res.Records {
		got[r.Payload] = true
	}
	for _, r := range acked {
		if !got[r.Payload] {
			t.Fatalf("acked record %d lost", r.Payload)
		}
	}
}
