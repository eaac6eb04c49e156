package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// mustAppend curries t so Append* call results pass through directly:
// mustAppend(t)(AppendX(...)).
func mustAppend(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// sampleFrames builds one frame of every type with representative payloads.
func sampleFrames(t *testing.T) []Frame {
	t.Helper()
	qp := mustAppend(t)(AppendQueryRequest(nil, QueryRequest{
		Lo:      grid.Point{1, 2, 3},
		Hi:      grid.Point{7, 8, 9},
		Timeout: 250 * time.Millisecond,
	}))
	sp := mustAppend(t)(AppendScanRequest(nil, ScanRequest{
		Ivs:     []query.Interval{{Lo: 0, Hi: 9}, {Lo: 12, Hi: 40}},
		Timeout: time.Second,
	}))
	bp := mustAppend(t)(AppendBatchPayload(nil, []store.Record{
		{Point: grid.Point{1, 2}, Payload: 7},
		{Point: grid.Point{3, 4}, Payload: 8},
	}))
	tp := mustAppend(t)(AppendTrailerPayload(nil, Trailer{
		Unavailable:   []query.Interval{{Lo: 3, Hi: 5}},
		ShardsQueried: 4,
		PagesRead:     99,
		ElapsedUS:     1234,
	}))
	ep := mustAppend(t)(AppendErrorPayload(nil, ErrorFrame{
		Code: CodeOverloaded, RetryAfterSec: 1, Msg: "overloaded",
	}))
	wp := mustAppend(t)(AppendWriteRequest(nil, WriteRequest{
		Point:   grid.Point{5, 6},
		Payload: 42,
		Timeout: 100 * time.Millisecond,
	}))
	dp := mustAppend(t)(AppendWriteRequest(nil, WriteRequest{
		Point: grid.Point{9, 10, 11},
	}))
	fp := mustAppend(t)(AppendFlushRequest(nil, FlushRequest{Timeout: time.Second}))
	ap := mustAppend(t)(AppendWriteAckPayload(nil, WriteAck{
		Acked:     2,
		Required:  2,
		ElapsedUS: 310,
		Replicas: []ReplicaOutcome{
			{Node: 0, Code: 0},
			{Node: 2, Code: CodeUnavailable},
		},
	}))
	return []Frame{
		{Type: TQuery, ID: 1, Payload: qp},
		{Type: TScan, ID: 2, Payload: sp},
		{Type: TPing, ID: 3},
		{Type: TBatch, ID: 4, Payload: bp},
		{Type: TTrailer, ID: 5, Payload: tp},
		{Type: TError, ID: 6, Payload: ep},
		{Type: TPong, ID: 7, Payload: AppendPongPayload(nil, Pong{Ready: true})},
		{Type: TPut, ID: 8, Payload: wp},
		{Type: TDelete, ID: 9, Payload: dp},
		{Type: TFlush, ID: 10, Payload: fp},
		{Type: TWriteAck, ID: 11, Payload: ap},
	}
}

// TestFrameRoundTrip: every frame type survives AppendFrame -> DecodeFrame
// and AppendFrame -> ReadFrame unchanged, including back-to-back frames in
// one buffer.
func TestFrameRoundTrip(t *testing.T) {
	frames := sampleFrames(t)
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}

	rest := buf
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if f, n, err := DecodeFrame(rest); err != nil || n != 0 || f.Type != 0 {
		t.Fatalf("clean end: got %+v, %d, %v", f, n, err)
	}

	r := bytes.NewReader(buf)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// ReadFrameInto reads the same frames into one caller-owned buffer,
	// using it whenever the payload fits and leaving it alone when not.
	r = bytes.NewReader(buf)
	scratch := make([]byte, 0, 16)
	for i, want := range frames {
		got, err := ReadFrameInto(r, scratch)
		if err != nil {
			t.Fatalf("read frame %d into scratch: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read frame %d into scratch: got %+v want %+v", i, got, want)
		}
		if n := len(want.Payload); n > 0 {
			if inScratch := &got.Payload[0] == &scratch[:1][0]; inScratch != (n <= cap(scratch)) {
				t.Fatalf("frame %d: %d-byte payload, %d-byte scratch: read into scratch = %v", i, n, cap(scratch), inScratch)
			}
		}
	}
}

// TestTornFrameEveryOffset: truncating an encoded frame at every byte
// offset yields ErrTruncated from both decode paths — never a successful
// decode, never a panic, never a wrong-length consume.
func TestTornFrameEveryOffset(t *testing.T) {
	for _, f := range sampleFrames(t) {
		full := AppendFrame(nil, f)
		for cut := 0; cut < len(full); cut++ {
			if cut == 0 {
				// Empty buffer is a clean boundary for DecodeFrame, a clean
				// EOF for ReadFrame.
				if _, n, err := DecodeFrame(nil); n != 0 || err != nil {
					t.Fatalf("empty decode: %d, %v", n, err)
				}
				if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
					t.Fatalf("empty read: %v", err)
				}
				continue
			}
			torn := full[:cut]
			if _, _, err := DecodeFrame(torn); !errors.Is(err, ErrTruncated) {
				t.Fatalf("type 0x%02x cut at %d/%d: decode err %v, want ErrTruncated", f.Type, cut, len(full), err)
			}
			if _, err := ReadFrame(bytes.NewReader(torn)); !errors.Is(err, ErrTruncated) {
				t.Fatalf("type 0x%02x cut at %d/%d: read err %v, want ErrTruncated", f.Type, cut, len(full), err)
			}
		}
	}
}

// TestCorruptFrameRejected: the CRC covers the header as well as the
// payload, so flipping any single bit of a valid frame is detected —
// ErrCorrupt, or ErrTruncated when the flip inflates the length field.
func TestCorruptFrameRejected(t *testing.T) {
	f := sampleFrames(t)[3] // TBatch: non-trivial payload
	full := AppendFrame(nil, f)
	for i := 0; i < len(full); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[i] ^= 1 << bit
			if got, _, err := DecodeFrame(mut); err == nil {
				t.Fatalf("bit flip %d.%d accepted: %+v", i, bit, got)
			}
		}
	}
}

// TestVersionRejected: a frame stamped with a future version is ErrCorrupt.
func TestVersionRejected(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: TPing, ID: 1})
	full[2] = Version + 1
	if _, _, err := DecodeFrame(full); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestHighTypeBitRejected: the high bit of the type byte is not a modifier.
// Every frame type with it set is an unknown type — ErrCorrupt from both
// decode paths even when the checksum has been recomputed over the altered
// header, so it is the type check and not the CRC that refuses it.
func TestHighTypeBitRejected(t *testing.T) {
	for _, f := range sampleFrames(t) {
		full := AppendFrame(nil, f)
		full[3] |= 0x80
		FinishFrame(full, 0)
		if _, _, err := DecodeFrame(full); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("type 0x%02x with the high bit: decode err %v, want ErrCorrupt", f.Type, err)
		}
		if _, err := ReadFrame(bytes.NewReader(full)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("type 0x%02x with the high bit: read err %v, want ErrCorrupt", f.Type, err)
		}
	}
}

// TestRequestTrailingByteRejected: each request payload has exactly one
// legal length. Whatever its value, one byte appended to a valid TQuery,
// TScan, TPut/TDelete or TFlush payload is ErrCorrupt, never ignored.
func TestRequestTrailingByteRejected(t *testing.T) {
	writeReq := func(b []byte) error { _, err := DecodeWriteRequest(b); return err }
	decoders := map[uint8]func([]byte) error{
		TQuery:  func(b []byte) error { _, err := DecodeQueryRequest(b); return err },
		TScan:   func(b []byte) error { _, err := DecodeScanRequest(b); return err },
		TPut:    writeReq,
		TDelete: writeReq,
		TFlush:  func(b []byte) error { _, err := DecodeFlushRequest(b); return err },
	}
	checked := 0
	for _, f := range sampleFrames(t) {
		decode, ok := decoders[f.Type]
		if !ok {
			continue
		}
		checked++
		if err := decode(f.Payload); err != nil {
			t.Fatalf("type 0x%02x: valid payload rejected: %v", f.Type, err)
		}
		for v := 0; v < 256; v++ {
			mut := append(append([]byte(nil), f.Payload...), byte(v))
			if err := decode(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("type 0x%02x: trailing byte 0x%02x: %v, want ErrCorrupt", f.Type, v, err)
			}
		}
	}
	if checked != len(decoders) {
		t.Fatalf("checked %d request types, want %d", checked, len(decoders))
	}
}

// TestPayloadRoundTrips: each payload codec is an exact inverse pair.
func TestPayloadRoundTrips(t *testing.T) {
	q := QueryRequest{Lo: grid.Point{0, ^uint32(0)}, Hi: grid.Point{5, 6}, Timeout: 3 * time.Second}
	qb := mustAppend(t)(AppendQueryRequest(nil, q))
	if got, err := DecodeQueryRequest(qb); err != nil ||
		!got.Lo.Equal(q.Lo) || !got.Hi.Equal(q.Hi) || got.Timeout != q.Timeout {
		t.Fatalf("query: %+v, %v", got, err)
	}

	s := ScanRequest{Ivs: []query.Interval{{Lo: 1, Hi: 2}, {Lo: ^uint64(0) - 1, Hi: ^uint64(0)}}}
	sb := mustAppend(t)(AppendScanRequest(nil, s))
	got, err := DecodeScanRequest(sb)
	if err != nil || len(got.Ivs) != 2 || got.Ivs[1] != s.Ivs[1] || got.Timeout != 0 {
		t.Fatalf("scan: %+v, %v", got, err)
	}

	recs := []store.Record{
		{Point: grid.Point{9, 8, 7, 6}, Payload: ^uint64(0)},
		{Point: grid.Point{0, 0, 0, 0}, Payload: 0},
		{Point: grid.Point{1, 2, 3, 4}, Payload: 42},
	}
	bb := mustAppend(t)(AppendBatchPayload(nil, recs))
	back, err := DecodeBatchPayload(bb)
	if err != nil || len(back) != len(recs) {
		t.Fatalf("batch: %d records, %v", len(back), err)
	}
	for i := range recs {
		if !back[i].Point.Equal(recs[i].Point) || back[i].Payload != recs[i].Payload {
			t.Fatalf("batch record %d: %+v want %+v", i, back[i], recs[i])
		}
	}

	tr := Trailer{ShardsQueried: 3, PagesRead: 17, ElapsedUS: 250,
		Unavailable: []query.Interval{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 31}}}
	tb := mustAppend(t)(AppendTrailerPayload(nil, tr))
	tback, err := DecodeTrailerPayload(tb)
	if err != nil || tback.ShardsQueried != 3 || tback.PagesRead != 17 ||
		tback.ElapsedUS != 250 || len(tback.Unavailable) != 2 || tback.Unavailable[1] != tr.Unavailable[1] {
		t.Fatalf("trailer: %+v, %v", tback, err)
	}
	if tback.Complete() {
		t.Fatal("trailer with dark intervals reports complete")
	}

	for _, hint := range []int64{-1, 0, 2} {
		e := ErrorFrame{Code: CodeUnavailable, RetryAfterSec: hint, Msg: "draining"}
		eb := mustAppend(t)(AppendErrorPayload(nil, e))
		eback, err := DecodeErrorPayload(eb)
		if err != nil || eback != e {
			t.Fatalf("error frame hint %d: %+v, %v", hint, eback, err)
		}
	}

	for _, ready := range []bool{true, false} {
		pb := AppendPongPayload(nil, Pong{Ready: ready})
		p, err := DecodePongPayload(pb)
		if err != nil || p.Ready != ready {
			t.Fatalf("pong: %+v, %v", p, err)
		}
	}
}

// TestBatchSlabSharing: DecodeBatchInto carves all points from one slab and
// the records stay independent of later slab reuse by capacity clamping.
func TestBatchSlabSharing(t *testing.T) {
	recs := []store.Record{
		{Point: grid.Point{1, 2}, Payload: 1},
		{Point: grid.Point{3, 4}, Payload: 2},
	}
	b := mustAppend(t)(AppendBatchPayload(nil, recs))
	out, rest, err := DecodeBatchInto(b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("slab remainder %d, want 0", len(rest))
	}
	// Appending to the first point's slice must not clobber the second
	// (full-slice-expression capacity clamp).
	p0 := append(out[0].Point, 99)
	if out[1].Point[0] != 3 {
		t.Fatalf("slab append clobbered next point: %v (appended %v)", out[1].Point, p0)
	}
}

// TestDecodeBounds: structurally absurd payloads are rejected without
// allocation explosions.
func TestDecodeBounds(t *testing.T) {
	// Scan with a count field claiming more intervals than the bytes hold.
	sb := mustAppend(t)(AppendScanRequest(nil, ScanRequest{Ivs: []query.Interval{{Lo: 1, Hi: 2}}}))
	sb[8] = 0xff // count = 255, body holds 1
	if _, err := DecodeScanRequest(sb); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inflated scan count: %v", err)
	}
	bb := mustAppend(t)(AppendBatchPayload(nil, []store.Record{{Point: grid.Point{1}, Payload: 0}}))
	bb[0] = 0xff
	if _, err := DecodeBatchPayload(bb); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inflated batch count: %v", err)
	}
	if _, err := DecodeQueryRequest(make([]byte, 9+8*200)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("200-dim query accepted")
	}
}

// TestHotPathAllocs gates the per-batch hot loops at zero steady-state
// allocations: the server's encoder (BeginFrame/AppendBatchPayload/
// FinishFrame into a retained buffer) and the client's decoder
// (DecodeBatchInto over a retained record slice and slab). A regression
// here silently multiplies GC pressure by the batch rate.
func TestHotPathAllocs(t *testing.T) {
	recs := make([]store.Record, DefaultBatchRecords)
	for i := range recs {
		recs[i] = store.Record{Point: grid.Point{uint32(i), uint32(i >> 8)}, Payload: uint64(i)}
	}

	var encBuf []byte
	encode := func() {
		start := len(encBuf[:0])
		buf, err := AppendBatchPayload(BeginFrame(encBuf[:0], TBatch, 1), recs)
		if err != nil {
			t.Fatal(err)
		}
		encBuf = FinishFrame(buf, start)
	}
	encode() // warm: first call sizes the buffer
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Fatalf("BeginFrame+AppendBatchPayload+FinishFrame: %v allocs/run, want 0", allocs)
	}

	payload := encBuf[HeaderSize:]
	out := make([]store.Record, 0, len(recs))
	slab := make([]uint32, 2*len(recs))
	decode := func() {
		var err error
		out, _, err = DecodeBatchInto(payload, out[:0], slab)
		if err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Fatalf("DecodeBatchInto with retained slab: %v allocs/run, want 0", allocs)
	}
	if len(out) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(out), len(recs))
	}
}
