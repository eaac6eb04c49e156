package wire

import (
	"fmt"
	"time"

	"repro/internal/grid"
)

// MaxWriteReplicas bounds the per-replica outcome list one TWriteAck may
// carry — far above any plausible replication factor, tight enough that a
// corrupt count cannot make the decoder allocate unboundedly.
const MaxWriteReplicas = 1 << 10

// WriteRequest is the TPut/TDelete payload: one record plus the
// server-side deadline. TDelete shares the shape — deletion removes every
// stored instance equal to the record (same point, same payload), and one
// codec keeps the torn-frame/corruption test surface identical for both
// types. Like the read requests, the payload has one legal length for its d.
//
//	timeout u64 (ns) | payload u64 | d u8 | d×u32 coords
type WriteRequest struct {
	Point   grid.Point
	Payload uint64
	Timeout time.Duration // server-side deadline; 0 = server default
}

// AppendWriteRequest appends w's payload encoding to dst.
func AppendWriteRequest(dst []byte, w WriteRequest) ([]byte, error) {
	d := len(w.Point)
	if d < 1 || d > MaxDims {
		return nil, fmt.Errorf("wire: write point %d dims outside [1, %d]", d, MaxDims)
	}
	if w.Timeout < 0 {
		return nil, fmt.Errorf("wire: negative timeout %v", w.Timeout)
	}
	dst = appendU64(dst, uint64(w.Timeout))
	dst = appendU64(dst, w.Payload)
	dst = append(dst, byte(d))
	for _, c := range w.Point {
		dst = appendU32(dst, c)
	}
	return dst, nil
}

// DecodeWriteRequest parses a TPut/TDelete payload.
func DecodeWriteRequest(b []byte) (WriteRequest, error) {
	if len(b) < 17 {
		return WriteRequest{}, fmt.Errorf("%w: write request %d bytes", ErrCorrupt, len(b))
	}
	timeout := time.Duration(readU64(b))
	if timeout < 0 {
		return WriteRequest{}, fmt.Errorf("%w: timeout overflows", ErrCorrupt)
	}
	d := int(b[16])
	if d < 1 || d > MaxDims {
		return WriteRequest{}, fmt.Errorf("%w: write request %d dims outside [1, %d]", ErrCorrupt, d, MaxDims)
	}
	if len(b) != 17+4*d {
		return WriteRequest{}, fmt.Errorf("%w: write request %d bytes for %d dims", ErrCorrupt, len(b), d)
	}
	w := WriteRequest{
		Point:   make(grid.Point, d),
		Payload: readU64(b[8:]),
		Timeout: timeout,
	}
	for i := 0; i < d; i++ {
		w.Point[i] = readU32(b[17+4*i:])
	}
	return w, nil
}

// FlushRequest is the TFlush payload: persist all buffered writes.
//
//	timeout u64 (ns)
type FlushRequest struct {
	Timeout time.Duration
}

// AppendFlushRequest appends f's payload encoding to dst.
func AppendFlushRequest(dst []byte, f FlushRequest) ([]byte, error) {
	if f.Timeout < 0 {
		return nil, fmt.Errorf("wire: negative timeout %v", f.Timeout)
	}
	return appendU64(dst, uint64(f.Timeout)), nil
}

// DecodeFlushRequest parses a TFlush payload.
func DecodeFlushRequest(b []byte) (FlushRequest, error) {
	if len(b) != 8 {
		return FlushRequest{}, fmt.Errorf("%w: flush request %d bytes", ErrCorrupt, len(b))
	}
	f := FlushRequest{Timeout: time.Duration(readU64(b))}
	if f.Timeout < 0 {
		return FlushRequest{}, fmt.Errorf("%w: timeout overflows", ErrCorrupt)
	}
	return f, nil
}

// ReplicaOutcome is one replica's result inside a WriteAck: the node index
// and the typed error code its attempt ended with (0 = applied).
type ReplicaOutcome struct {
	Node uint32
	// Code is 0 when the replica applied the write, otherwise one of the
	// Code* error constants describing why it did not.
	Code uint8
}

// WriteAck is the TWriteAck payload: the terminal answer to a write
// request. A standalone daemon answers Acked=1, Required=1 with an empty
// replica list — the list enumerates per-replica outcomes only when a
// router fanned the write out, so the single-node encoding stays minimal.
//
//	acked u16 | required u16 | elapsed_us u64 | count u16 | count × (node u32, code u8)
type WriteAck struct {
	// Acked counts replicas that durably applied the write.
	Acked int
	// Required is the quorum W the answering endpoint was configured to
	// wait for; Acked >= Required on success paths.
	Required int
	// ElapsedUS is the server-side service time in microseconds.
	ElapsedUS int64
	// Replicas lists per-replica outcomes (router answers only; empty
	// means the answering daemon itself applied the write).
	Replicas []ReplicaOutcome
}

// AppendWriteAckPayload appends a's encoding to dst.
func AppendWriteAckPayload(dst []byte, a WriteAck) ([]byte, error) {
	if a.Acked < 0 || a.Acked > 0xffff || a.Required < 0 || a.Required > 0xffff {
		return nil, fmt.Errorf("wire: write ack counts %d/%d outside u16", a.Acked, a.Required)
	}
	if a.ElapsedUS < 0 {
		return nil, fmt.Errorf("wire: negative write ack elapsed")
	}
	if len(a.Replicas) > MaxWriteReplicas {
		return nil, fmt.Errorf("wire: write ack with %d replicas exceeds %d", len(a.Replicas), MaxWriteReplicas)
	}
	for _, r := range a.Replicas {
		switch r.Code {
		case 0, CodeBadRequest, CodeOverloaded, CodeUnavailable, CodeDeadline, CodeInternal, CodeReadOnly:
		default:
			return nil, fmt.Errorf("wire: unknown replica outcome code 0x%02x", r.Code)
		}
	}
	dst = appendU16(dst, uint16(a.Acked))
	dst = appendU16(dst, uint16(a.Required))
	dst = appendU64(dst, uint64(a.ElapsedUS))
	dst = appendU16(dst, uint16(len(a.Replicas)))
	for _, r := range a.Replicas {
		dst = appendU32(dst, r.Node)
		dst = append(dst, r.Code)
	}
	return dst, nil
}

// DecodeWriteAckPayload parses a TWriteAck payload.
func DecodeWriteAckPayload(b []byte) (WriteAck, error) {
	if len(b) < 14 {
		return WriteAck{}, fmt.Errorf("%w: write ack %d bytes", ErrCorrupt, len(b))
	}
	a := WriteAck{
		Acked:     int(readU16(b)),
		Required:  int(readU16(b[2:])),
		ElapsedUS: int64(readU64(b[4:])),
	}
	if a.ElapsedUS < 0 {
		return WriteAck{}, fmt.Errorf("%w: write ack elapsed overflows", ErrCorrupt)
	}
	n := int(readU16(b[12:]))
	if n > MaxWriteReplicas {
		return WriteAck{}, fmt.Errorf("%w: write ack with %d replicas exceeds %d", ErrCorrupt, n, MaxWriteReplicas)
	}
	if len(b) != 14+5*n {
		return WriteAck{}, fmt.Errorf("%w: write ack %d bytes for %d replicas", ErrCorrupt, len(b), n)
	}
	if n > 0 {
		a.Replicas = make([]ReplicaOutcome, n)
		for i := range a.Replicas {
			a.Replicas[i] = ReplicaOutcome{Node: readU32(b[14+5*i:]), Code: b[18+5*i]}
			switch a.Replicas[i].Code {
			case 0, CodeBadRequest, CodeOverloaded, CodeUnavailable, CodeDeadline, CodeInternal, CodeReadOnly:
			default:
				return WriteAck{}, fmt.Errorf("%w: unknown replica outcome code 0x%02x", ErrCorrupt, a.Replicas[i].Code)
			}
		}
	}
	return a, nil
}
