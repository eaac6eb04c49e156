package server

import (
	"fmt"
	"strconv"

	"repro/internal/service"
)

// The wire types are the daemon's JSON vocabulary, shared with
// internal/client so both ends marshal the same shapes.

// WireRecord is one stored record on the wire.
type WireRecord struct {
	Point   []uint32 `json:"point"`
	Payload uint64   `json:"payload"`
}

// WireInterval is one half-open curve-index interval [Lo, Hi) on the wire.
type WireInterval struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// QueryResponse is the body of a successful /query response.
type QueryResponse struct {
	// Records holds the readable records inside the box, in curve order.
	Records []WireRecord `json:"records"`
	// Unavailable lists the curve intervals no shard could serve (sorted,
	// disjoint, merged). Empty means the answer is complete.
	Unavailable []WireInterval `json:"unavailable,omitempty"`
	// ShardsQueried counts the shards the query fanned out to.
	ShardsQueried int `json:"shards_queried"`
	// Complete mirrors len(Unavailable) == 0 for clients that do not want
	// to reason about intervals.
	Complete bool `json:"complete"`
	// ElapsedUS is the server-side service time in microseconds, admission
	// queueing excluded.
	ElapsedUS int64 `json:"elapsed_us"`
	// PagesRead counts distinct leaf pages the query touched, dark pages
	// included — the paper's clustering cost made observable per request.
	PagesRead int64 `json:"pages_read"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WireInfo is the body of GET /wireinfo: the daemon's advertised binary
// protocol listener, if any. Daemons not serving the binary protocol answer
// 404, and clients fall back to JSON.
type WireInfo struct {
	// Addr is the "host:port" of the binary wire listener.
	Addr string `json:"addr"`
	// Write reports that TPut/TDelete/TFlush frames will be applied: only
	// a daemon with a write path (sfcserved -data, or a router) advertises
	// it. Every daemon accepts the frames; one without a write path
	// answers each with TError CodeReadOnly and keeps the connection.
	Write bool `json:"write,omitempty"`
}

// WriteRequest is the body of POST /put and POST /delete: one record,
// routed to the shard owning its curve position.
type WriteRequest struct {
	Point   []uint32 `json:"point"`
	Payload uint64   `json:"payload"`
}

// WriteResponse is the body of a successful /put, /delete or /flush
// response. A put or delete is acknowledged only after the owning shard's
// WAL has synced it. A standalone daemon answers Acked=1, Required=1; a
// router reports its replica fan-out — how many replicas applied the
// write, the quorum it waited for, and how many known-dead replicas were
// recorded as missed for anti-entropy to repair.
type WriteResponse struct {
	OK       bool `json:"ok"`
	Acked    int  `json:"acked,omitempty"`
	Required int  `json:"required,omitempty"`
	Missed   int  `json:"missed,omitempty"`
}

// DigestResponse is the body of GET /digest: the anti-entropy range
// summary. Sum is rendered as a hex string because JSON numbers cannot
// carry a full uint64 exactly.
type DigestResponse struct {
	Count      uint64 `json:"count"`
	Sum        string `json:"sum"`
	Generation uint64 `json:"generation"`
	ElapsedUS  int64  `json:"elapsed_us"`
}

// Digest converts the wire form back to the service's digest shape.
func (d DigestResponse) Digest() (service.RangeDigest, error) {
	sum, err := strconv.ParseUint(d.Sum, 16, 64)
	if err != nil {
		return service.RangeDigest{}, fmt.Errorf("digest sum %q: %w", d.Sum, err)
	}
	return service.RangeDigest{Count: d.Count, Sum: sum, Generation: d.Generation}, nil
}

// toDigestResponse converts a service digest to its wire form.
func toDigestResponse(d service.RangeDigest, elapsedUS int64) DigestResponse {
	return DigestResponse{
		Count:      d.Count,
		Sum:        strconv.FormatUint(d.Sum, 16),
		Generation: d.Generation,
		ElapsedUS:  elapsedUS,
	}
}

// toResponse converts a service result to its wire form.
func toResponse(res service.Result, elapsedUS int64) QueryResponse {
	out := QueryResponse{
		Records:       make([]WireRecord, len(res.Records)),
		ShardsQueried: res.ShardsQueried,
		Complete:      res.Complete(),
		ElapsedUS:     elapsedUS,
		PagesRead:     res.PagesRead,
	}
	for i, r := range res.Records {
		out.Records[i] = WireRecord{Point: r.Point, Payload: r.Payload}
	}
	if len(res.Unavailable) > 0 {
		out.Unavailable = make([]WireInterval, len(res.Unavailable))
		for i, iv := range res.Unavailable {
			out.Unavailable[i] = WireInterval{Lo: iv.Lo, Hi: iv.Hi}
		}
	}
	return out
}
