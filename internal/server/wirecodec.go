package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"

	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
)

// ServeWire accepts binary-protocol connections (internal/wire) on l until
// Drain. The wire listener is a second front door to the same backend:
// every request runs the same pipeline as the HTTP mux (serve) — only the
// codec differs. Requests pipeline per connection: each request frame is
// handled in its own goroutine and responses interleave by request id.
func (s *Server) ServeWire(l net.Listener) error {
	s.wireMu.Lock()
	if s.wireListeners == nil {
		s.wireConns = make(map[net.Conn]struct{})
	}
	s.wireListeners = append(s.wireListeners, l)
	s.wireMu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.wireMu.Lock()
		s.wireConns[c] = struct{}{}
		s.wireMu.Unlock()
		s.wireConnWG.Add(1)
		go func() {
			defer s.wireConnWG.Done()
			s.serveWireConn(c)
			s.wireMu.Lock()
			delete(s.wireConns, c)
			s.wireMu.Unlock()
		}()
	}
}

// AdvertiseWire publishes addr through GET /wireinfo so JSON clients (and
// the cluster router) can discover the binary listener and upgrade.
func (s *Server) AdvertiseWire(addr string) { s.wireAdvert.Store(addr) }

// handleWireInfo answers GET /wireinfo: the advertised binary listener,
// or 404 when the daemon does not serve the binary protocol. Write
// reports whether the backend has a write path; the TPut/TDelete/TFlush
// frames are accepted either way and answered CodeReadOnly without one.
func (s *Server) handleWireInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	addr, _ := s.wireAdvert.Load().(string)
	if addr == "" {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "binary protocol not served"})
		return
	}
	json.NewEncoder(w).Encode(WireInfo{Addr: addr, Write: s.b.Writable()})
}

// wireWriter serializes whole-frame writes to one connection, so frames
// from pipelined handler goroutines never interleave mid-frame. One
// conn.Write per frame: the frame is the flush unit.
type wireWriter struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte
}

func (w *wireWriter) write(f wire.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = wire.AppendFrame(w.buf[:0], f)
	_, err := w.c.Write(w.buf)
	return err
}

// segmentBytes bounds how much of a response one conn.Write carries. Small
// results — the common case — go out as one write (batches plus trailer,
// one syscall); large scans flush in segments, releasing the writer between
// them so pipelined responses and pings still interleave.
const segmentBytes = 1 << 18

// wireExchange is the binary codec for one request frame. Response frames
// are encoded into a private per-request buffer and flushed with a single
// locked conn.Write whenever a segment fills: TBatch frames go out as the
// backend's merge produces them, so the client's first records arrive while
// later curve intervals are still being scanned, and the buffer never grows
// past one segment plus one frame — per-request buffering is bounded by
// segmentBytes plus the largest batch, not by the result size. The trailer
// is the stream's commit point; a failure after batches have flushed is a
// TError frame — the protocol's promise that a missing trailer always comes
// with a reason or a dead connection.
//
// The segment buffer comes from a process-wide free list when the
// connection's handler builds the exchange and goes back when Server.serve
// has returned: by then every flush has finished (conn.Write does not keep
// its argument) and nothing else ever saw the buffer, so the next exchange
// to draw it is its only user.
type wireExchange struct {
	s   *Server
	w   *wireWriter
	f   wire.Frame
	seg *segment
}

// segment is one exchange's response buffer on the free list.
type segment struct{ buf []byte }

var segments = sync.Pool{New: func() any { return new(segment) }}

// maxPooledSegmentBytes caps the capacity the free list keeps: a segment
// grows to segmentBytes plus one frame, plus append's slack; one stretched
// further by an unusually wide batch is left to the collector.
const maxPooledSegmentBytes = 4 * segmentBytes

// release gives the segment back to the free list. It holds encoded bytes
// only — no pointers — so it is not zeroed.
func (g *segment) release() {
	if cap(g.buf) <= maxPooledSegmentBytes {
		g.buf = g.buf[:0]
		segments.Put(g)
	}
}

func (x *wireExchange) decode() (request, error) {
	var req request
	var err error
	switch x.f.Type {
	case wire.TQuery:
		req.op = opQuery
		var q wire.QueryRequest
		if q, err = wire.DecodeQueryRequest(x.f.Payload); err != nil {
			break
		}
		req.timeout = q.Timeout
		req.box, err = query.NewBox(x.s.b.Curve().Universe(), q.Lo, q.Hi)
	case wire.TScan:
		req.op = opScan
		var q wire.ScanRequest
		q, err = wire.DecodeScanRequest(x.f.Payload)
		req.ivs, req.timeout = q.Ivs, q.Timeout
	case wire.TPut, wire.TDelete:
		req.op = opPut
		if x.f.Type == wire.TDelete {
			req.op = opDelete
		}
		var q wire.WriteRequest
		q, err = wire.DecodeWriteRequest(x.f.Payload)
		req.rec, req.timeout = store.Record{Point: q.Point, Payload: q.Payload}, q.Timeout
	case wire.TFlush:
		req.op = opFlush
		var q wire.FlushRequest
		q, err = wire.DecodeFlushRequest(x.f.Payload)
		req.timeout = q.Timeout
	}
	if err != nil {
		return req, classed{failBadRequest, err}
	}
	return req, nil
}

// batch encodes recs as TBatch frames of at most DefaultBatchRecords each,
// straight into the segment buffer with no intermediate copy.
func (x *wireExchange) batch(recs []store.Record) error {
	seg := x.seg
	for len(recs) > 0 {
		n := len(recs)
		if n > wire.DefaultBatchRecords {
			n = wire.DefaultBatchRecords
		}
		start := len(seg.buf)
		buf, err := wire.AppendBatchPayload(wire.BeginFrame(seg.buf, wire.TBatch, x.f.ID), recs[:n])
		if err != nil {
			return classed{failInternal, err}
		}
		seg.buf = wire.FinishFrame(buf, start)
		recs = recs[n:]
		if len(seg.buf) >= segmentBytes {
			if err := x.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes the buffered segment under the connection's write lock. A
// write error means the connection died: nobody is listening, and the read
// loop notices too.
func (x *wireExchange) flush() error {
	seg := x.seg
	x.w.mu.Lock()
	_, err := x.w.c.Write(seg.buf)
	x.w.mu.Unlock()
	seg.buf = seg.buf[:0]
	if err != nil {
		return classed{failClientGone, err}
	}
	return nil
}

// trailer appends the TTrailer and flushes whatever remains, so a small
// response goes out as one write.
func (x *wireExchange) trailer(res service.Result, elapsedUS int64) error {
	seg := x.seg
	start := len(seg.buf)
	buf, err := wire.AppendTrailerPayload(wire.BeginFrame(seg.buf, wire.TTrailer, x.f.ID), wire.Trailer{
		Unavailable:   res.Unavailable,
		ShardsQueried: res.ShardsQueried,
		PagesRead:     res.PagesRead,
		ElapsedUS:     elapsedUS,
	})
	if err != nil {
		return classed{failInternal, err}
	}
	seg.buf = wire.FinishFrame(buf, start)
	return x.flush()
}

// digest is never reached: digests ride the HTTP side channel on both
// transports, so no frame type decodes to opDigest.
func (x *wireExchange) digest(service.RangeDigest, int64) error {
	return classed{failInternal, errors.New("digest has no binary frame")}
}

// ack answers a write with a TWriteAck and an empty replica list: a router
// reports its fan-out in Acked/Required, a standalone daemon is its own
// single replica.
func (x *wireExchange) ack(a WriteResponse, elapsedUS int64) error {
	p, err := wire.AppendWriteAckPayload(nil, wire.WriteAck{Acked: a.Acked, Required: a.Required, ElapsedUS: elapsedUS})
	if err != nil {
		return classed{failInternal, err}
	}
	if err := x.w.write(wire.Frame{Type: wire.TWriteAck, ID: x.f.ID, Payload: p}); err != nil {
		return classed{failClientGone, err}
	}
	return nil
}

// fail sends the class's TError frame; response frames still buffered are
// dropped with the exchange.
func (x *wireExchange) fail(c failClass, msg string) {
	f := failures[c]
	if f.status == 0 {
		return
	}
	hint := int64(-1) // no retry-after
	if f.retryAfter {
		hint = int64(x.s.retryAfterSec)
	}
	p, err := wire.AppendErrorPayload(nil, wire.ErrorFrame{Code: f.code, RetryAfterSec: hint, Msg: msg})
	if err == nil {
		x.w.write(wire.Frame{Type: wire.TError, ID: x.f.ID, Payload: p})
	}
}

// serveWireConn reads request frames until the connection dies or sends a
// malformed frame (framing is terminal: a corrupt stream cannot be
// re-synchronized). Each request runs the pipeline in its own goroutine;
// the connection closes only after every one has finished writing.
func (s *Server) serveWireConn(c net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &wireWriter{c: c}
	var handlers sync.WaitGroup
	handle := func(f wire.Frame) {
		defer s.wireReqWG.Done()
		defer handlers.Done()
		if f.Type == wire.TPing {
			w.write(wire.Frame{
				Type:    wire.TPong,
				ID:      f.ID,
				Payload: wire.AppendPongPayload(nil, wire.Pong{Ready: !s.draining.Load()}),
			})
			return
		}
		seg := segments.Get().(*segment)
		s.serve(ctx, &wireExchange{s: s, w: w, f: f, seg: seg})
		seg.release()
	}
	br := bufio.NewReaderSize(c, 1<<16)
read:
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			break
		}
		switch f.Type {
		case wire.TPing, wire.TQuery, wire.TScan, wire.TPut, wire.TDelete, wire.TFlush:
			s.wireReqWG.Add(1)
			handlers.Add(1)
			go handle(f)
		default:
			// A response-direction or unknown frame from a client is a
			// protocol violation; drop the connection.
			break read
		}
	}
	cancel()
	handlers.Wait()
	c.Close()
}
