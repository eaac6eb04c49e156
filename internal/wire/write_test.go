package wire

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/grid"
)

// TestWriteRequestRoundTrip: the TPut/TDelete codec is an exact inverse
// pair with one length per dimensionality.
func TestWriteRequestRoundTrip(t *testing.T) {
	cases := []WriteRequest{
		{Point: grid.Point{1}, Payload: 0, Timeout: 0},
		{Point: grid.Point{3, ^uint32(0)}, Payload: ^uint64(0), Timeout: time.Second},
		{Point: grid.Point{7, 8, 9}, Payload: 5, Timeout: 250 * time.Millisecond},
	}
	for i, w := range cases {
		b := mustAppend(t)(AppendWriteRequest(nil, w))
		got, err := DecodeWriteRequest(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !got.Point.Equal(w.Point) || got.Payload != w.Payload ||
			got.Timeout != w.Timeout {
			t.Fatalf("case %d: got %+v want %+v", i, got, w)
		}
		if wantLen := 17 + 4*len(w.Point); len(b) != wantLen {
			t.Fatalf("case %d: %d bytes, want %d", i, len(b), wantLen)
		}
	}
}

// TestWriteRequestRejects: structural validation on both ends.
func TestWriteRequestRejects(t *testing.T) {
	if _, err := AppendWriteRequest(nil, WriteRequest{}); err == nil {
		t.Fatal("0-dim point accepted")
	}
	if _, err := AppendWriteRequest(nil, WriteRequest{Point: make(grid.Point, MaxDims+1)}); err == nil {
		t.Fatal("oversized point accepted")
	}
	if _, err := AppendWriteRequest(nil, WriteRequest{Point: grid.Point{1}, Timeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	valid := mustAppend(t)(AppendWriteRequest(nil, WriteRequest{Point: grid.Point{1, 2}}))
	for _, cut := range []int{0, 1, 16, len(valid) - 1} {
		if _, err := DecodeWriteRequest(valid[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestFlushRequestRoundTrip: TFlush codec inverse pair.
func TestFlushRequestRoundTrip(t *testing.T) {
	for _, f := range []FlushRequest{{}, {Timeout: 3 * time.Second}} {
		b := mustAppend(t)(AppendFlushRequest(nil, f))
		got, err := DecodeFlushRequest(b)
		if err != nil || got != f {
			t.Fatalf("flush %+v: got %+v, %v", f, got, err)
		}
	}
	if _, err := DecodeFlushRequest(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("empty flush accepted")
	}
}

// TestWriteAckRoundTrip: TWriteAck codec inverse pair, with and without a
// replica outcome list.
func TestWriteAckRoundTrip(t *testing.T) {
	cases := []WriteAck{
		{Acked: 1, Required: 1, ElapsedUS: 12},
		{Acked: 2, Required: 2, ElapsedUS: 9000, Replicas: []ReplicaOutcome{
			{Node: 0, Code: 0},
			{Node: 1, Code: CodeDeadline},
			{Node: 7, Code: CodeReadOnly},
		}},
	}
	for i, a := range cases {
		b := mustAppend(t)(AppendWriteAckPayload(nil, a))
		got, err := DecodeWriteAckPayload(b)
		if err != nil || !reflect.DeepEqual(got, a) {
			t.Fatalf("case %d: got %+v, %v; want %+v", i, got, err, a)
		}
	}
	if _, err := AppendWriteAckPayload(nil, WriteAck{Acked: -1}); err == nil {
		t.Fatal("negative acked accepted")
	}
	if _, err := AppendWriteAckPayload(nil, WriteAck{Replicas: []ReplicaOutcome{{Code: 0x99}}}); err == nil {
		t.Fatal("unknown outcome code accepted on encode")
	}
	bad := mustAppend(t)(AppendWriteAckPayload(nil, cases[1]))
	bad[len(bad)-1] = 0x99
	if _, err := DecodeWriteAckPayload(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatal("unknown outcome code accepted on decode")
	}
}

// TestWriteFramesCorruptionRejected: every single-bit flip of an encoded
// write-path frame is detected — the same every-bit coverage the read
// frames have, applied to each new type.
func TestWriteFramesCorruptionRejected(t *testing.T) {
	for _, f := range sampleFrames(t) {
		switch f.Type {
		case TPut, TDelete, TFlush, TWriteAck:
		default:
			continue
		}
		full := AppendFrame(nil, f)
		for i := 0; i < len(full); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), full...)
				mut[i] ^= 1 << bit
				if got, _, err := DecodeFrame(mut); err == nil {
					t.Fatalf("type 0x%02x bit flip %d.%d accepted: %+v", f.Type, i, bit, got)
				}
			}
		}
	}
}
