// Package wire is the daemon's binary protocol: length-prefixed,
// checksummed frames over a persistent TCP connection, with chunked
// streaming of scan results.
//
// The protocol exists because the HTTP/JSON hop dominates serving cost
// (the benchmark's hot_small_json and hot_small_binary workloads replay one
// trace through each door), almost all of it marshaling and per-request
// connection work. The binary framing removes both: requests pipeline over
// one connection (tagged with request ids, so responses demultiplex without
// head-of-line blocking between requests), and records travel in a packed
// little-endian encoding that the decoder materializes with one coordinate
// slab per batch instead of one allocation per point.
//
// # Frame grammar
//
// Every frame is a 20-byte header followed by a payload:
//
//	magic   u16  = 0x5346 ("SF", little-endian)
//	version u8   = 1
//	type    u8   — one of the T* constants
//	id      u64  — request id; responses echo their request's id
//	length  u32  — payload byte length, at most MaxFramePayload
//	crc     u32  — CRC-32C (Castagnoli) of header bytes 0..15 ++ payload
//
// All integers are little-endian, matching the WAL's framed-entry
// discipline (internal/wal): a frame whose magic, version, type, length or
// checksum is malformed is ErrCorrupt; a frame that ends past the end of
// the buffer is ErrTruncated. Both are terminal for a connection — framing
// is trustworthy only from a clean boundary.
//
// # Request/response state machine
//
// The client sends request frames (TQuery, TScan, TPing, TPut, TDelete,
// TFlush), each with a fresh id. The server answers each id with exactly
// one of:
//
//   - zero or more TBatch frames followed by one TTrailer (a scan stream:
//     records in curve order, then dark intervals + pages read in the
//     trailer), or
//   - one TError frame (typed code + optional retry-after hint), which may
//     arrive even after TBatch frames — a mid-stream failure is reported,
//     never a silently truncated body, or
//   - one TPong (for TPing), or
//   - one TWriteAck (for TPut, TDelete, TFlush: replica outcome summary).
//
// Every daemon accepts write frames (TPut, TDelete, TFlush). One with no
// write path (no durable store; a router with no write quorum) answers
// them with TError CodeReadOnly before touching any state and keeps the
// connection open; GET /wireinfo advertises "write": true where writes
// will be applied.
//
// Frames of different ids interleave arbitrarily; frames of one id arrive
// in order. A response stream is complete exactly when its TTrailer or
// TError has arrived.
//
// # Versioning
//
// The version byte is per-frame. A reader that sees a version it does not
// speak must reject the frame as ErrCorrupt and close the connection; there
// is no negotiation. Every request payload has exactly one legal length
// and every type byte outside the T* constants is ErrCorrupt, so version 1
// leaves two spaces it rejects outright: bytes appended to a payload and
// unassigned type values. A future revision may grow into either only after
// explicit negotiation (an advertisement on GET /wireinfo, then a
// per-request opt-in); a new version byte is required for any change that
// alters the meaning of existing bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the first two bytes of every frame ("SF" little-endian).
const Magic = 0x5346

// Version is the protocol revision this package speaks.
const Version = 1

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 20

// MaxFramePayload bounds a single frame's payload so a corrupt length field
// is rejected immediately instead of swallowing the stream (64 MiB).
const MaxFramePayload = 1 << 26

// Frame types. Requests are low numbers, responses high, so an endpoint can
// cheaply assert direction.
const (
	// TQuery asks for a box query: payload is a QueryRequest.
	TQuery = 0x01
	// TScan asks for a raw curve-interval scan: payload is a ScanRequest.
	TScan = 0x02
	// TPing probes readiness: empty payload.
	TPing = 0x03
	// TPut asks to durably upsert one record: payload is a WriteRequest.
	TPut = 0x04
	// TDelete asks to durably delete every stored instance of a record
	// (same point, same payload): payload is a WriteRequest.
	TDelete = 0x05
	// TFlush asks to persist all buffered writes: payload is a FlushRequest.
	TFlush = 0x06

	// TBatch carries one chunk of result records in curve order.
	TBatch = 0x10
	// TTrailer ends a result stream: dark intervals, pages read, shards.
	TTrailer = 0x11
	// TError reports a typed failure for its request id; terminal.
	TError = 0x12
	// TPong answers TPing: payload is a Pong.
	TPong = 0x13
	// TWriteAck answers TPut/TDelete/TFlush: payload is a WriteAck.
	TWriteAck = 0x14
)

// ErrTruncated reports a frame that ends past the end of the input — the
// torn-tail shape a cut connection leaves behind.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrCorrupt reports a frame whose magic, version, type, length, or
// checksum is malformed. The connection cannot be re-synchronized.
var ErrCorrupt = errors.New("wire: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded frame: its type, request id, and raw payload.
type Frame struct {
	Type    uint8
	ID      uint64
	Payload []byte
}

// validType reports whether t is a known frame type.
func validType(t uint8) bool {
	switch t {
	case TQuery, TScan, TPing, TPut, TDelete, TFlush,
		TBatch, TTrailer, TError, TPong, TWriteAck:
		return true
	}
	return false
}

// AppendFrame appends f's encoding to dst and returns the extended slice.
// It panics on a payload exceeding MaxFramePayload — the caller bounds
// batch sizes, so an oversized payload is a programming error, not input.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = BeginFrame(dst, f.Type, f.ID)
	dst = append(dst, f.Payload...)
	return FinishFrame(dst, start)
}

// BeginFrame appends a frame header for typ/id to dst with the length and
// checksum fields left zero, returning the extended slice. The caller
// appends the payload in place and closes the frame with FinishFrame —
// encoding large payloads directly into a connection's write buffer
// instead of through an intermediate allocation and copy.
func BeginFrame(dst []byte, typ uint8, id uint64) []byte {
	dst = appendU16(dst, Magic)
	dst = append(dst, Version, typ)
	dst = appendU64(dst, id)
	// Length and CRC placeholders; FinishFrame patches them.
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// FinishFrame patches the length and checksum of the frame whose header
// BeginFrame wrote at offset start, now that the payload sits in place
// after it. Like AppendFrame it panics on a payload exceeding
// MaxFramePayload — the caller bounds batch sizes, so an oversized payload
// is a programming error, not input.
func FinishFrame(dst []byte, start int) []byte {
	n := len(dst) - start - HeaderSize
	if n > MaxFramePayload {
		panic(fmt.Sprintf("wire: frame payload %d exceeds MaxFramePayload", n))
	}
	b := dst[start:]
	binary.LittleEndian.PutUint32(b[12:], uint32(n))
	sum := crc32.Update(crc32.Checksum(b[:16], castagnoli), castagnoli, b[HeaderSize:HeaderSize+n])
	binary.LittleEndian.PutUint32(b[16:], sum)
	return dst
}

// DecodeFrame parses the first frame of b, returning the frame and the
// bytes consumed. The returned payload aliases b. An empty buffer returns
// (Frame{}, 0, nil) — the clean end of a stream.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return Frame{}, 0, nil
	}
	if len(b) < HeaderSize {
		return Frame{}, 0, ErrTruncated
	}
	if readU16(b) != Magic {
		return Frame{}, 0, fmt.Errorf("%w: bad magic 0x%04x", ErrCorrupt, readU16(b))
	}
	if b[2] != Version {
		return Frame{}, 0, fmt.Errorf("%w: unsupported version %d (speaking %d)", ErrCorrupt, b[2], Version)
	}
	typ := b[3]
	if !validType(typ) {
		return Frame{}, 0, fmt.Errorf("%w: unknown frame type 0x%02x", ErrCorrupt, typ)
	}
	id := readU64(b[4:])
	n := readU32(b[12:])
	if n > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, n, MaxFramePayload)
	}
	if len(b) < HeaderSize+int(n) {
		return Frame{}, 0, ErrTruncated
	}
	payload := b[HeaderSize : HeaderSize+int(n)]
	sum := crc32.Update(crc32.Checksum(b[:16], castagnoli), castagnoli, payload)
	if sum != readU32(b[16:]) {
		return Frame{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return Frame{Type: typ, ID: id, Payload: payload}, HeaderSize + int(n), nil
}

// ReadFrame reads one frame from r. The payload is freshly allocated, so
// the frame stays valid across subsequent reads. A clean EOF at a frame
// boundary returns io.EOF; EOF inside a frame is ErrTruncated.
func ReadFrame(r io.Reader) (Frame, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto is ReadFrame with the payload read into buf's backing array
// when its capacity suffices (a fresh slice otherwise), for a reader whose
// consumers hand payloads back once decoded. The frame's payload is then
// only valid until buf is reused.
func ReadFrameInto(r io.Reader, buf []byte) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, ErrTruncated
		}
		return Frame{}, err
	}
	if readU16(hdr[:]) != Magic {
		return Frame{}, fmt.Errorf("%w: bad magic 0x%04x", ErrCorrupt, readU16(hdr[:]))
	}
	if hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: unsupported version %d (speaking %d)", ErrCorrupt, hdr[2], Version)
	}
	typ := hdr[3]
	if !validType(typ) {
		return Frame{}, fmt.Errorf("%w: unknown frame type 0x%02x", ErrCorrupt, typ)
	}
	n := readU32(hdr[12:])
	if n > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, n, MaxFramePayload)
	}
	payload := buf[:0]
	if int(n) > cap(buf) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, ErrTruncated
		}
		return Frame{}, err
	}
	sum := crc32.Update(crc32.Checksum(hdr[:16], castagnoli), castagnoli, payload)
	if sum != readU32(hdr[16:]) {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return Frame{Type: typ, ID: readU64(hdr[4:]), Payload: payload}, nil
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
