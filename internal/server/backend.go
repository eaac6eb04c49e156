package server

import (
	"context"
	"errors"

	"repro/internal/curve"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// Backend is what the request pipeline executes against: a curve-keyed
// record set that can stream a box or interval scan, apply durable writes,
// and summarize a range. The sharded service (one daemon's data) and the
// cluster router (every member's data behind scatter-gather) are the two
// implementations, which is what lets sfcserved and sfcrouter be the same
// Server.
//
// A Backend picks the failure class of an error by wrapping ErrReadOnly or
// ErrUnavailable (or returning the context's error); anything else is
// classified by the operation that failed — see classify.
type Backend interface {
	// Curve is the curve keying the record set; requests are validated
	// against its universe.
	Curve() curve.Curve
	// Metrics is the registry the server records its own series into, so
	// /metrics shows the backend's and the server's together.
	Metrics() *metrics.Registry
	// RangeStream opens the box query as a stream of curve-ordered batches.
	RangeStream(ctx context.Context, b query.Box) (Stream, error)
	// ScanStream opens a raw scan of sorted, disjoint curve intervals.
	ScanStream(ctx context.Context, ivs []query.Interval) (Stream, error)
	// Digest summarizes the records in ivs for anti-entropy comparison.
	Digest(ctx context.Context, ivs []query.Interval) (service.RangeDigest, error)
	// Put and Delete apply one durable write and report how many replicas
	// hold it.
	Put(ctx context.Context, r store.Record) (WriteResponse, error)
	Delete(ctx context.Context, r store.Record) (WriteResponse, error)
	// Flush persists buffered writes to on-disk runs.
	Flush(ctx context.Context) error
	// Writable reports whether the write operations can succeed at all;
	// /wireinfo advertises it.
	Writable() bool
	// Close releases the backend once Drain has finished the last request.
	Close() error
}

// Stream is one open scan: Next yields curve-ordered batches (valid until
// the next call) until io.EOF, after which Trailer holds the dark intervals
// and cost counters. Close must be called whether or not the stream was
// drained.
type Stream interface {
	Next() ([]store.Record, error)
	Trailer() service.Result
	Close()
}

// ErrReadOnly and ErrUnavailable are the sentinels a Backend wraps to say
// "this backend has no write path" (403 / CodeReadOnly, terminal) and
// "not now, ask again" (503 / CodeUnavailable with Retry-After).
var (
	ErrReadOnly    error = classed{failReadOnly, errors.New("backend is read-only")}
	ErrUnavailable error = classed{failUnavailable, errors.New("backend temporarily unavailable")}
)

// serviceBackend adapts *service.Service: Curve, Metrics, Digest, Flush and
// Close are the service's own; the streams need an interface-typed nil on
// failure and the writes drop the variadic options and report the
// standalone daemon's single replica.
type serviceBackend struct{ *service.Service }

func (b serviceBackend) RangeStream(ctx context.Context, box query.Box) (Stream, error) {
	st, err := b.Service.RangeStream(ctx, box)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (b serviceBackend) ScanStream(ctx context.Context, ivs []query.Interval) (Stream, error) {
	st, err := b.Service.ScanStream(ctx, ivs)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (b serviceBackend) Put(ctx context.Context, r store.Record) (WriteResponse, error) {
	return singleReplicaAck, b.Service.Put(ctx, r)
}

func (b serviceBackend) Delete(ctx context.Context, r store.Record) (WriteResponse, error) {
	return singleReplicaAck, b.Service.Delete(ctx, r)
}

func (b serviceBackend) Writable() bool { return b.DurableMode() }

// singleReplicaAck acknowledges a write (or flush) applied by one node.
var singleReplicaAck = WriteResponse{OK: true, Acked: 1, Required: 1}
