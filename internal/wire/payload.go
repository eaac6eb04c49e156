package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// Protocol limits, enforced on decode so a malformed peer cannot make an
// endpoint allocate unboundedly.
const (
	// MaxDims bounds point dimensionality on the wire; the grid universe
	// caps d·k at 64 bits, so 64 dimensions is already unreachable.
	MaxDims = 64
	// MaxScanIntervals bounds the interval count one scan request may
	// carry — the same bound the HTTP /scan endpoint enforces.
	MaxScanIntervals = 1 << 14
	// MaxBatchRecords bounds one TBatch frame's record count.
	MaxBatchRecords = 1 << 20
	// DefaultBatchRecords is the chunk size servers stream results in:
	// with d=2 one batch is ~64 KiB, big enough to amortize the frame and
	// syscall, small enough that the first records reach the client while
	// the scan is still running through later intervals.
	DefaultBatchRecords = 4096
)

// QueryRequest is the TQuery payload: a box query plus the server-side
// deadline. The payload has exactly one legal length for its d; a trailing
// byte is ErrCorrupt.
//
//	timeout u64 (ns) | d u8 | d×u32 lo | d×u32 hi
type QueryRequest struct {
	Lo, Hi  grid.Point
	Timeout time.Duration // server-side deadline; 0 = server default
}

// AppendQueryRequest appends q's payload encoding to dst.
func AppendQueryRequest(dst []byte, q QueryRequest) ([]byte, error) {
	d := len(q.Lo)
	if d < 1 || d > MaxDims || len(q.Hi) != d {
		return nil, fmt.Errorf("wire: query corners %d/%d dims outside [1, %d] or mismatched", len(q.Lo), len(q.Hi), MaxDims)
	}
	if q.Timeout < 0 {
		return nil, fmt.Errorf("wire: negative timeout %v", q.Timeout)
	}
	dst = appendU64(dst, uint64(q.Timeout))
	dst = append(dst, byte(d))
	for _, c := range q.Lo {
		dst = appendU32(dst, c)
	}
	for _, c := range q.Hi {
		dst = appendU32(dst, c)
	}
	return dst, nil
}

// DecodeQueryRequest parses a TQuery payload.
func DecodeQueryRequest(b []byte) (QueryRequest, error) {
	if len(b) < 9 {
		return QueryRequest{}, fmt.Errorf("%w: query request %d bytes", ErrCorrupt, len(b))
	}
	timeout := readU64(b)
	d := int(b[8])
	if d < 1 || d > MaxDims {
		return QueryRequest{}, fmt.Errorf("%w: query request %d dims outside [1, %d]", ErrCorrupt, d, MaxDims)
	}
	if len(b) != 9+8*d {
		return QueryRequest{}, fmt.Errorf("%w: query request %d bytes for %d dims", ErrCorrupt, len(b), d)
	}
	q := QueryRequest{
		Lo:      make(grid.Point, d),
		Hi:      make(grid.Point, d),
		Timeout: time.Duration(timeout),
	}
	if q.Timeout < 0 {
		return QueryRequest{}, fmt.Errorf("%w: timeout overflows", ErrCorrupt)
	}
	for i := 0; i < d; i++ {
		q.Lo[i] = readU32(b[9+4*i:])
	}
	for i := 0; i < d; i++ {
		q.Hi[i] = readU32(b[9+4*d+4*i:])
	}
	return q, nil
}

// ScanRequest is the TScan payload: raw curve intervals plus the
// server-side deadline. Semantic validation (sorted, disjoint, in-range)
// belongs to the service; the codec enforces only structure, including the
// one legal length for the interval count.
//
//	timeout u64 (ns) | count u32 | count × (lo u64, hi u64)
type ScanRequest struct {
	Ivs     []query.Interval
	Timeout time.Duration
}

// AppendScanRequest appends s's payload encoding to dst.
func AppendScanRequest(dst []byte, s ScanRequest) ([]byte, error) {
	if len(s.Ivs) == 0 || len(s.Ivs) > MaxScanIntervals {
		return nil, fmt.Errorf("wire: %d scan intervals outside [1, %d]", len(s.Ivs), MaxScanIntervals)
	}
	if s.Timeout < 0 {
		return nil, fmt.Errorf("wire: negative timeout %v", s.Timeout)
	}
	dst = appendU64(dst, uint64(s.Timeout))
	dst = appendU32(dst, uint32(len(s.Ivs)))
	for _, iv := range s.Ivs {
		dst = appendU64(dst, iv.Lo)
		dst = appendU64(dst, iv.Hi)
	}
	return dst, nil
}

// DecodeScanRequest parses a TScan payload.
func DecodeScanRequest(b []byte) (ScanRequest, error) {
	if len(b) < 12 {
		return ScanRequest{}, fmt.Errorf("%w: scan request %d bytes", ErrCorrupt, len(b))
	}
	timeout := time.Duration(readU64(b))
	if timeout < 0 {
		return ScanRequest{}, fmt.Errorf("%w: timeout overflows", ErrCorrupt)
	}
	n := int(readU32(b[8:]))
	if n < 1 || n > MaxScanIntervals {
		return ScanRequest{}, fmt.Errorf("%w: %d scan intervals outside [1, %d]", ErrCorrupt, n, MaxScanIntervals)
	}
	if len(b) != 12+16*n {
		return ScanRequest{}, fmt.Errorf("%w: scan request %d bytes for %d intervals", ErrCorrupt, len(b), n)
	}
	s := ScanRequest{Ivs: make([]query.Interval, n), Timeout: timeout}
	for i := range s.Ivs {
		s.Ivs[i] = query.Interval{Lo: readU64(b[12+16*i:]), Hi: readU64(b[20+16*i:])}
	}
	return s, nil
}

// AppendBatchPayload appends the TBatch encoding of recs to dst. All
// records must share one dimensionality; records are written in the order
// given — the server streams them in curve order, and the encoding
// preserves it.
//
//	count u32 | d u8 | count × (d×u32 coords, payload u64)
func AppendBatchPayload(dst []byte, recs []store.Record) ([]byte, error) {
	if len(recs) == 0 || len(recs) > MaxBatchRecords {
		return nil, fmt.Errorf("wire: batch of %d records outside [1, %d]", len(recs), MaxBatchRecords)
	}
	d := len(recs[0].Point)
	if d < 1 || d > MaxDims {
		return nil, fmt.Errorf("wire: batch record %d dims outside [1, %d]", d, MaxDims)
	}
	// One pre-sized grow and direct indexed stores: this encoder is the
	// server's per-batch hot loop, and append's per-field capacity checks
	// were a measurable fraction of serving cost.
	recSize := 4*d + 8
	need := 5 + len(recs)*recSize
	dst = slices.Grow(dst, need)
	off := len(dst)
	dst = dst[:off+need]
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, uint32(len(recs)))
	b[4] = byte(d)
	o := 5
	for i := range recs {
		p := recs[i].Point
		if len(p) != d {
			return nil, fmt.Errorf("wire: batch record %d has %d dims, batch has %d", i, len(p), d)
		}
		for _, c := range p {
			binary.LittleEndian.PutUint32(b[o:], c)
			o += 4
		}
		binary.LittleEndian.PutUint64(b[o:], recs[i].Payload)
		o += 8
	}
	return dst, nil
}

// DecodeBatchPayload parses a TBatch payload. All points in the batch share
// one backing coordinate slab — one allocation per batch, not per record.
func DecodeBatchPayload(b []byte) ([]store.Record, error) {
	recs, _, err := DecodeBatchInto(b, nil, nil)
	return recs, err
}

// DecodeBatchInto parses a TBatch payload, appending the records to recs
// and carving their points out of slab (grown as needed). It returns the
// extended record slice and the remaining slab — the zero-copy path for
// consumers that accumulate many batches.
func DecodeBatchInto(b []byte, recs []store.Record, slab []uint32) ([]store.Record, []uint32, error) {
	if len(b) < 5 {
		return recs, slab, fmt.Errorf("%w: batch %d bytes", ErrCorrupt, len(b))
	}
	n := int(readU32(b))
	d := int(b[4])
	if n < 1 || n > MaxBatchRecords {
		return recs, slab, fmt.Errorf("%w: batch of %d records outside [1, %d]", ErrCorrupt, n, MaxBatchRecords)
	}
	if d < 1 || d > MaxDims {
		return recs, slab, fmt.Errorf("%w: batch record %d dims outside [1, %d]", ErrCorrupt, d, MaxDims)
	}
	stride := 4*d + 8
	if len(b) != 5+n*stride {
		return recs, slab, fmt.Errorf("%w: batch %d bytes for %d records of %d dims", ErrCorrupt, len(b), n, d)
	}
	if len(slab) < n*d {
		slab = make([]uint32, n*d)
	}
	recs = slices.Grow(recs, n)
	off := 5
	for i := 0; i < n; i++ {
		p := slab[:d:d]
		slab = slab[d:]
		for j := 0; j < d; j++ {
			p[j] = readU32(b[off+4*j:])
		}
		recs = append(recs, store.Record{Point: grid.Point(p), Payload: readU64(b[off+4*d:])})
		off += stride
	}
	return recs, slab, nil
}

// Trailer is the TTrailer payload: the end-of-stream summary that makes a
// binary scan's answer exactly as informative as the JSON body — dark
// intervals, pages read, shards queried, and server-side service time.
//
//	shards u32 | pages u64 | elapsed_us u64 | count u32 | count × (lo u64, hi u64)
type Trailer struct {
	// Unavailable lists the curve intervals no shard could serve: sorted,
	// disjoint, merged. Empty means the stream was complete.
	Unavailable []query.Interval
	// ShardsQueried counts the shards (or, through a router, nodes) the
	// request fanned out to.
	ShardsQueried int
	// PagesRead counts distinct leaf pages touched, dark pages included.
	PagesRead int64
	// ElapsedUS is the server-side service time in microseconds.
	ElapsedUS int64
}

// Complete reports whether the stream covered every requested interval.
func (t Trailer) Complete() bool { return len(t.Unavailable) == 0 }

// AppendTrailerPayload appends t's encoding to dst.
func AppendTrailerPayload(dst []byte, t Trailer) ([]byte, error) {
	if len(t.Unavailable) > MaxScanIntervals {
		return nil, fmt.Errorf("wire: trailer with %d dark intervals exceeds %d", len(t.Unavailable), MaxScanIntervals)
	}
	if t.ShardsQueried < 0 || t.PagesRead < 0 || t.ElapsedUS < 0 {
		return nil, fmt.Errorf("wire: negative trailer counters")
	}
	dst = appendU32(dst, uint32(t.ShardsQueried))
	dst = appendU64(dst, uint64(t.PagesRead))
	dst = appendU64(dst, uint64(t.ElapsedUS))
	dst = appendU32(dst, uint32(len(t.Unavailable)))
	for _, iv := range t.Unavailable {
		dst = appendU64(dst, iv.Lo)
		dst = appendU64(dst, iv.Hi)
	}
	return dst, nil
}

// DecodeTrailerPayload parses a TTrailer payload.
func DecodeTrailerPayload(b []byte) (Trailer, error) {
	if len(b) < 24 {
		return Trailer{}, fmt.Errorf("%w: trailer %d bytes", ErrCorrupt, len(b))
	}
	t := Trailer{
		ShardsQueried: int(readU32(b)),
		PagesRead:     int64(readU64(b[4:])),
		ElapsedUS:     int64(readU64(b[12:])),
	}
	if t.PagesRead < 0 || t.ElapsedUS < 0 {
		return Trailer{}, fmt.Errorf("%w: trailer counter overflows", ErrCorrupt)
	}
	n := int(readU32(b[20:]))
	if n > MaxScanIntervals {
		return Trailer{}, fmt.Errorf("%w: trailer with %d dark intervals exceeds %d", ErrCorrupt, n, MaxScanIntervals)
	}
	if len(b) != 24+16*n {
		return Trailer{}, fmt.Errorf("%w: trailer %d bytes for %d intervals", ErrCorrupt, len(b), n)
	}
	if n > 0 {
		t.Unavailable = make([]query.Interval, n)
		for i := range t.Unavailable {
			t.Unavailable[i] = query.Interval{Lo: readU64(b[24+16*i:]), Hi: readU64(b[32+16*i:])}
		}
	}
	return t, nil
}

// Error codes carried by TError frames. Codes, not strings, drive client
// behavior; the message is for humans.
const (
	// CodeBadRequest: the request was malformed; do not retry.
	CodeBadRequest = 0x01
	// CodeOverloaded: the server shed the request; retry after backing off.
	CodeOverloaded = 0x02
	// CodeUnavailable: the server is draining or shutting down; retryable
	// against a replacement.
	CodeUnavailable = 0x03
	// CodeDeadline: the request's deadline expired server-side.
	CodeDeadline = 0x04
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = 0x05
	// CodeReadOnly: the daemon has no durable store, so writes are
	// rejected before touching any state; do not retry against this node.
	// Only ever sent in answer to write frames, which old clients never
	// send — adding the code is compatibility-safe.
	CodeReadOnly = 0x06
)

// NoRetryHint marks an ErrorFrame that carries no retry-after hint.
const NoRetryHint = ^uint32(0)

// ErrorFrame is the TError payload: a typed failure, terminal for its
// request id. It may follow TBatch frames — the binary protocol reports
// mid-stream failures instead of truncating the body.
//
//	code u8 | retry_after u32 (s; NoRetryHint = none) | message (rest, UTF-8)
type ErrorFrame struct {
	Code uint8
	// RetryAfterSec is the server's backoff hint in seconds; -1 means the
	// server gave none. 0 is meaningful: retry immediately.
	RetryAfterSec int64
	Msg           string
}

// AppendErrorPayload appends e's encoding to dst.
func AppendErrorPayload(dst []byte, e ErrorFrame) ([]byte, error) {
	switch e.Code {
	case CodeBadRequest, CodeOverloaded, CodeUnavailable, CodeDeadline, CodeInternal, CodeReadOnly:
	default:
		return nil, fmt.Errorf("wire: unknown error code 0x%02x", e.Code)
	}
	hint := NoRetryHint
	if e.RetryAfterSec >= 0 {
		if e.RetryAfterSec >= int64(NoRetryHint) {
			return nil, fmt.Errorf("wire: retry-after %ds unencodable", e.RetryAfterSec)
		}
		hint = uint32(e.RetryAfterSec)
	}
	dst = append(dst, e.Code)
	dst = appendU32(dst, hint)
	return append(dst, e.Msg...), nil
}

// DecodeErrorPayload parses a TError payload.
func DecodeErrorPayload(b []byte) (ErrorFrame, error) {
	if len(b) < 5 {
		return ErrorFrame{}, fmt.Errorf("%w: error frame %d bytes", ErrCorrupt, len(b))
	}
	e := ErrorFrame{Code: b[0], RetryAfterSec: -1, Msg: string(b[5:])}
	switch e.Code {
	case CodeBadRequest, CodeOverloaded, CodeUnavailable, CodeDeadline, CodeInternal, CodeReadOnly:
	default:
		return ErrorFrame{}, fmt.Errorf("%w: unknown error code 0x%02x", ErrCorrupt, b[0])
	}
	if hint := readU32(b[1:]); hint != NoRetryHint {
		e.RetryAfterSec = int64(hint)
	}
	return e, nil
}

// Pong is the TPong payload.
//
//	ready u8 (0|1)
type Pong struct {
	Ready bool
}

// AppendPongPayload appends p's encoding to dst.
func AppendPongPayload(dst []byte, p Pong) []byte {
	if p.Ready {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodePongPayload parses a TPong payload.
func DecodePongPayload(b []byte) (Pong, error) {
	if len(b) != 1 || b[0] > 1 {
		return Pong{}, fmt.Errorf("%w: pong payload", ErrCorrupt)
	}
	return Pong{Ready: b[0] == 1}, nil
}
