package faultio_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/store"
)

func testDevice(t *testing.T) store.PageDevice {
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
	st, err := store.Bulkload(z, recs, store.WithPageSize(8), store.WithFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	return st.DefaultDevice()
}

func TestWrapValidation(t *testing.T) {
	dev := testDevice(t)
	if _, err := faultio.Wrap(dev, faultio.Config{TransientProb: 1.5}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := faultio.Wrap(dev, faultio.Config{LostFrac: -0.1}); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if _, err := faultio.Wrap(dev, faultio.Config{LostPages: []int{dev.NumPages()}}); err == nil {
		t.Fatal("out-of-range lost page accepted")
	}
}

// TestZeroConfigPassthrough: an injector with no faults configured is a
// transparent proxy.
func TestZeroConfigPassthrough(t *testing.T) {
	dev := testDevice(t)
	in, err := faultio.Wrap(dev, faultio.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < dev.NumPages(); id++ {
		want, err := dev.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.ReadPage(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("page %d altered by disabled injector", id)
		}
	}
	c := in.Counters()
	if c.Transients+c.LostReads+c.Corruptions+c.Spikes != 0 {
		t.Fatalf("faults injected by zero config: %+v", c)
	}
	if c.Reads != uint64(dev.NumPages()) {
		t.Fatalf("reads = %d, want %d", c.Reads, dev.NumPages())
	}
}

// TestDeterminism: the same seed yields the same fault schedule, counter
// for counter, independent of a prior unrelated read history.
func TestDeterminism(t *testing.T) {
	dev := testDevice(t)
	cfg := faultio.Config{Seed: 77, TransientProb: 0.3, CorruptProb: 0.2, SpikeProb: 0.1, LostFrac: 0.2}
	run := func() (faultio.Counters, []int, []error) {
		in, err := faultio.Wrap(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var errs []error
		for pass := 0; pass < 3; pass++ {
			for id := 0; id < dev.NumPages(); id++ {
				_, err := in.ReadPage(id)
				errs = append(errs, err)
			}
		}
		return in.Counters(), in.Lost(), errs
	}
	c1, lost1, errs1 := run()
	c2, lost2, errs2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverge: %+v vs %+v", c1, c2)
	}
	if !reflect.DeepEqual(lost1, lost2) {
		t.Fatalf("lost sets diverge: %v vs %v", lost1, lost2)
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("read %d outcome diverges", i)
		}
	}
	if c1.Transients == 0 || c1.Corruptions == 0 || c1.LostReads == 0 {
		t.Fatalf("schedule injected nothing: %+v", c1)
	}
}

// TestLostPagesArePermanent: lost pages error with ErrPermanent so the
// store's retry loop gives up immediately.
func TestLostPagesArePermanent(t *testing.T) {
	dev := testDevice(t)
	in, err := faultio.Wrap(dev, faultio.Config{Seed: 1, LostPages: []int{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Lost(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("Lost() = %v", got)
	}
	for _, id := range []int{2, 5} {
		if _, err := in.ReadPage(id); !errors.Is(err, store.ErrPermanent) {
			t.Fatalf("page %d: err = %v, want ErrPermanent", id, err)
		}
	}
	if _, err := in.ReadPage(0); err != nil {
		t.Fatalf("healthy page 0 failed: %v", err)
	}
}

// TestCorruptionChangesOnePayloadBit: a corrupted page differs from the
// pristine one in exactly one record payload, and the underlying device
// memory is never mutated.
func TestCorruptionChangesOnePayloadBit(t *testing.T) {
	dev := testDevice(t)
	in, err := faultio.Wrap(dev, faultio.Config{Seed: 4, CorruptProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < dev.NumPages(); id++ {
		pristine, _ := dev.ReadPage(id)
		before := append([]store.Record(nil), pristine.Records...)
		got, err := in.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range got.Records {
			if got.Records[i].Payload != before[i].Payload {
				diff++
				if x := got.Records[i].Payload ^ before[i].Payload; x&(x-1) != 0 {
					t.Fatalf("page %d record %d: more than one bit flipped", id, i)
				}
			}
			if !got.Records[i].Point.Equal(before[i].Point) {
				t.Fatalf("page %d record %d: point mutated", id, i)
			}
		}
		if diff != 1 {
			t.Fatalf("page %d: %d payloads changed, want exactly 1", id, diff)
		}
		// Source of truth untouched.
		after, _ := dev.ReadPage(id)
		for i := range after.Records {
			if after.Records[i].Payload != before[i].Payload {
				t.Fatalf("page %d: corruption leaked into the underlying device", id)
			}
		}
	}
}

// TestLatencyAccounting: spikes dominate the simulated latency.
func TestLatencyAccounting(t *testing.T) {
	dev := testDevice(t)
	base, err := faultio.Wrap(dev, faultio.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spiky, err := faultio.Wrap(dev, faultio.Config{Seed: 1, SpikeProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < dev.NumPages(); id++ {
		base.ReadPage(id)
		spiky.ReadPage(id)
	}
	if b, s := base.Counters(), spiky.Counters(); s.Latency <= b.Latency || s.Spikes != s.Reads {
		t.Fatalf("spike accounting off: base %+v, spiky %+v", b, s)
	}
}
