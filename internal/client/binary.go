package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// DefaultDialTimeout bounds each binary-transport connection attempt.
const DefaultDialTimeout = 2 * time.Second

// ErrTransportClosed reports a request issued after Close.
var ErrTransportClosed = errors.New("client: transport closed")

// BinaryTransport speaks the daemon's binary wire protocol
// (internal/wire): persistent TCP connections, request pipelining with
// id-demultiplexed responses, and chunked streaming of scan results. It is
// safe for concurrent use; requests round-robin over the connection pool
// and pipeline within each connection.
type BinaryTransport struct {
	// Addr is the daemon's wire listener, e.g. "127.0.0.1:7173"
	// (sfcserved -wire-addr).
	Addr string
	// Conns is the connection-pool size (default 2). More connections help
	// only when single-connection write bandwidth saturates — pipelining
	// already overlaps requests on one connection.
	Conns int
	// DialTimeout bounds each connection attempt (default
	// DefaultDialTimeout).
	DialTimeout time.Duration

	initOnce sync.Once
	slots    []*connSlot
	rr       atomic.Uint64
	closed   atomic.Bool
}

// connSlot lazily holds one persistent connection; a dead connection is
// redialed by the next request routed to the slot.
type connSlot struct {
	mu sync.Mutex
	bc *binConn
}

func (t *BinaryTransport) init() {
	t.initOnce.Do(func() {
		n := t.Conns
		if n <= 0 {
			n = 2
		}
		t.slots = make([]*connSlot, n)
		for i := range t.slots {
			t.slots[i] = &connSlot{}
		}
	})
}

// conn returns a live pooled connection, dialing if the slot is empty or
// its connection died. Dial failures are retryable: the daemon may be
// restarting.
func (t *BinaryTransport) conn(ctx context.Context) (*binConn, error) {
	if t.closed.Load() {
		return nil, ErrTransportClosed
	}
	t.init()
	s := t.slots[t.rr.Add(1)%uint64(len(t.slots))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bc != nil && s.bc.alive() {
		return s.bc, nil
	}
	dt := t.DialTimeout
	if dt <= 0 {
		dt = DefaultDialTimeout
	}
	d := net.Dialer{Timeout: dt}
	nc, err := d.DialContext(ctx, "tcp", t.Addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("client: %w", ctx.Err())
		}
		return nil, retryable(fmt.Errorf("client: dial %s: %w", t.Addr, err))
	}
	s.bc = newBinConn(nc)
	return s.bc, nil
}

// Query implements Transport: one pipelined box query, response stream
// drained into a buffered QueryResponse.
func (t *BinaryTransport) Query(ctx context.Context, b query.Box, timeout time.Duration) (server.QueryResponse, error) {
	st, err := t.QueryStream(ctx, b, timeout)
	if err != nil {
		return server.QueryResponse{}, err
	}
	defer st.Close()
	return st.Collect()
}

// QueryStream implements Transport: a box query whose record batches arrive
// in curve order while the server is still scanning later intervals.
func (t *BinaryTransport) QueryStream(ctx context.Context, b query.Box, timeout time.Duration) (*Stream, error) {
	eff, err := effectiveTimeout(ctx, timeout)
	if err != nil {
		return nil, err
	}
	payload, err := wire.AppendQueryRequest(nil, wire.QueryRequest{Lo: b.Lo, Hi: b.Hi, Timeout: eff})
	if err != nil {
		return nil, err
	}
	return t.openStream(ctx, wire.TQuery, payload)
}

// Scan implements Transport: a streaming scan drained into a buffered
// QueryResponse.
func (t *BinaryTransport) Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (server.QueryResponse, error) {
	st, err := t.ScanStream(ctx, ivs, timeout)
	if err != nil {
		return server.QueryResponse{}, err
	}
	defer st.Close()
	return st.Collect()
}

// ScanStream implements Transport: records arrive in curve-order batches
// while the server is still scanning later intervals.
func (t *BinaryTransport) ScanStream(ctx context.Context, ivs []query.Interval, timeout time.Duration) (*Stream, error) {
	eff, err := effectiveTimeout(ctx, timeout)
	if err != nil {
		return nil, err
	}
	payload, err := wire.AppendScanRequest(nil, wire.ScanRequest{Ivs: ivs, Timeout: eff})
	if err != nil {
		return nil, err
	}
	return t.openStream(ctx, wire.TScan, payload)
}

// Put implements Transport: one TPut frame, answered by a TWriteAck.
func (t *BinaryTransport) Put(ctx context.Context, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	return t.doWrite(ctx, wire.TPut, rec, timeout)
}

// Delete implements Transport: one TDelete frame, answered by a TWriteAck.
func (t *BinaryTransport) Delete(ctx context.Context, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	return t.doWrite(ctx, wire.TDelete, rec, timeout)
}

// Flush implements Transport: one TFlush frame, answered by a TWriteAck.
func (t *BinaryTransport) Flush(ctx context.Context, timeout time.Duration) (server.WriteResponse, error) {
	eff, err := effectiveTimeout(ctx, timeout)
	if err != nil {
		return server.WriteResponse{}, err
	}
	payload, err := wire.AppendFlushRequest(nil, wire.FlushRequest{Timeout: eff})
	if err != nil {
		return server.WriteResponse{}, err
	}
	return t.roundTripWrite(ctx, wire.TFlush, payload)
}

// doWrite encodes and round-trips one TPut/TDelete request.
func (t *BinaryTransport) doWrite(ctx context.Context, ftype uint8, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	eff, err := effectiveTimeout(ctx, timeout)
	if err != nil {
		return server.WriteResponse{}, err
	}
	payload, err := wire.AppendWriteRequest(nil, wire.WriteRequest{Point: rec.Point, Payload: rec.Payload, Timeout: eff})
	if err != nil {
		return server.WriteResponse{}, err
	}
	return t.roundTripWrite(ctx, ftype, payload)
}

// roundTripWrite sends one write frame and waits for its TWriteAck,
// classifying failures by whether the frame can have reached the server:
// dial failures and dead-before-send connections stay plainly retryable,
// while any failure after the frame hit the socket — connection death,
// context expiry — is a *MaybeAppliedError. A server answering with a
// TError decides the classification itself: refusal codes it sends before
// touching state (shed, draining, read-only) are the server marking the
// attempt safe to repeat or terminal; deadline and internal failures are
// maybe-applied.
func (t *BinaryTransport) roundTripWrite(ctx context.Context, ftype uint8, payload []byte) (server.WriteResponse, error) {
	bc, err := t.conn(ctx)
	if err != nil {
		return server.WriteResponse{}, err
	}
	pr, sent, err := bc.sendClassified(ftype, payload)
	if err != nil {
		if sent {
			return server.WriteResponse{}, maybeApplied(err)
		}
		return server.WriteResponse{}, err
	}
	defer pr.cancel()
	f, err := pr.wait(ctx, bc)
	if err != nil {
		// The frame left the client; a dead connection or an expired
		// context no longer proves the server did not apply it.
		var re *RetryableError
		if errors.As(err, &re) {
			err = re.Err
		}
		return server.WriteResponse{}, maybeApplied(err)
	}
	switch f.Type {
	case wire.TWriteAck:
		ack, err := wire.DecodeWriteAckPayload(f.Payload)
		if err != nil {
			bc.fail(err)
			return server.WriteResponse{}, maybeApplied(err)
		}
		bc.recycle(f.Payload)
		return server.WriteResponse{OK: true, Acked: ack.Acked, Required: ack.Required}, nil
	case wire.TError:
		return server.WriteResponse{}, writeErrorFromFrame(bc, f)
	default:
		err := fmt.Errorf("client: unexpected frame type 0x%02x answering write", f.Type)
		bc.fail(err)
		return server.WriteResponse{}, maybeApplied(err)
	}
}

// writeErrorFromFrame maps a write-answering TError to the client's error
// vocabulary. Unlike errorFromFrame, ambiguity matters here: only codes
// the server guarantees were raised before touching the WAL may come back
// retryable.
func writeErrorFromFrame(bc *binConn, f wire.Frame) error {
	e, err := wire.DecodeErrorPayload(f.Payload)
	if err != nil {
		bc.fail(err)
		return maybeApplied(err)
	}
	bc.recycle(f.Payload)
	var hint time.Duration = -1
	if e.RetryAfterSec >= 0 {
		hint = time.Duration(e.RetryAfterSec) * time.Second
	}
	switch e.Code {
	case wire.CodeOverloaded:
		return &RetryableError{RetryAfter: hint, Err: fmt.Errorf("%w: %s", ErrOverloaded, e.Msg)}
	case wire.CodeUnavailable:
		return &RetryableError{RetryAfter: hint, Err: fmt.Errorf("%w: %s", ErrUnavailable, e.Msg)}
	case wire.CodeReadOnly:
		return fmt.Errorf("%w: %s", ErrReadOnly, e.Msg)
	case wire.CodeBadRequest:
		return fmt.Errorf("client: server rejected write: %s", e.Msg)
	case wire.CodeDeadline:
		return maybeApplied(fmt.Errorf("client: server deadline exceeded: %s", e.Msg))
	default:
		return maybeApplied(fmt.Errorf("client: server error: %s", e.Msg))
	}
}

// Ping round-trips a TPing frame, reporting the daemon's readiness over
// the binary listener.
func (t *BinaryTransport) Ping(ctx context.Context) (bool, error) {
	bc, err := t.conn(ctx)
	if err != nil {
		return false, err
	}
	pr, err := bc.send(wire.TPing, nil)
	if err != nil {
		return false, err
	}
	defer pr.cancel()
	f, err := pr.wait(ctx, bc)
	if err != nil {
		return false, err
	}
	if f.Type != wire.TPong {
		bc.fail(fmt.Errorf("client: %v frame answering ping", f.Type))
		return false, retryable(fmt.Errorf("client: unexpected frame type 0x%02x answering ping", f.Type))
	}
	p, err := wire.DecodePongPayload(f.Payload)
	if err != nil {
		bc.fail(err)
		return false, err
	}
	bc.recycle(f.Payload)
	return p.Ready, nil
}

// Close implements Transport: closes every pooled connection. In-flight
// requests fail with a retryable connection error.
func (t *BinaryTransport) Close() error {
	t.closed.Store(true)
	t.init()
	for _, s := range t.slots {
		s.mu.Lock()
		if s.bc != nil {
			s.bc.fail(ErrTransportClosed)
			s.bc = nil
		}
		s.mu.Unlock()
	}
	return nil
}

// openStream sends one request frame and waits for the first response
// frame, so retryable refusals (shed, draining) surface here — before a
// Stream exists — and the Client's retry loop can repeat the attempt. The
// first accepted frame is pushed back into the returned Stream.
func (t *BinaryTransport) openStream(ctx context.Context, ftype uint8, payload []byte) (*Stream, error) {
	bc, err := t.conn(ctx)
	if err != nil {
		return nil, err
	}
	pr, err := bc.send(ftype, payload)
	if err != nil {
		return nil, err
	}
	first, err := pr.wait(ctx, bc)
	if err != nil {
		pr.cancel()
		return nil, err
	}
	if first.Type == wire.TError {
		pr.cancel()
		return nil, errorFromFrame(bc, first)
	}
	return newBinaryStream(ctx, bc, pr, first), nil
}

// newBinaryStream wraps a demultiplexed response-frame sequence as a
// Stream. pushback is the already-received first frame.
func newBinaryStream(ctx context.Context, bc *binConn, pr *pendingReq, pushback wire.Frame) *Stream {
	havePushback := true
	var slab []uint32
	s := &Stream{stop: pr.cancel}
	s.recv = func(s *Stream) ([]store.Record, error) {
		var f wire.Frame
		if havePushback {
			f, havePushback = pushback, false
		} else {
			var err error
			f, err = pr.wait(ctx, bc)
			if err != nil {
				return nil, err
			}
		}
		switch f.Type {
		case wire.TBatch:
			var recs []store.Record
			var err error
			recs, slab, err = wire.DecodeBatchInto(f.Payload, nil, slab)
			if err != nil {
				bc.fail(err)
				return nil, err
			}
			// The records live in slab, which is not recycled (batches stay
			// valid after later Next calls); the payload is dead.
			bc.recycle(f.Payload)
			return recs, nil
		case wire.TTrailer:
			tr, err := wire.DecodeTrailerPayload(f.Payload)
			if err != nil {
				bc.fail(err)
				return nil, err
			}
			bc.recycle(f.Payload)
			s.trailer, s.haveTrailer = tr, true
			return nil, io.EOF
		case wire.TError:
			return nil, errorFromFrame(bc, f)
		default:
			err := fmt.Errorf("client: unexpected frame type 0x%02x in scan stream", f.Type)
			bc.fail(err)
			return nil, err
		}
	}
	return s
}

// errorFromFrame maps a TError frame to the client's error vocabulary:
// shed and draining answers are retryable with the server's hint; bad
// requests, deadline expiries, and internal failures are terminal.
func errorFromFrame(bc *binConn, f wire.Frame) error {
	e, err := wire.DecodeErrorPayload(f.Payload)
	if err != nil {
		bc.fail(err)
		return err
	}
	bc.recycle(f.Payload)
	var hint time.Duration = -1
	if e.RetryAfterSec >= 0 {
		hint = time.Duration(e.RetryAfterSec) * time.Second
	}
	switch e.Code {
	case wire.CodeOverloaded:
		return &RetryableError{RetryAfter: hint, Err: fmt.Errorf("%w: %s", ErrOverloaded, e.Msg)}
	case wire.CodeUnavailable:
		return &RetryableError{RetryAfter: hint, Err: fmt.Errorf("%w: %s", ErrUnavailable, e.Msg)}
	case wire.CodeBadRequest:
		return fmt.Errorf("client: server rejected request: %s", e.Msg)
	case wire.CodeDeadline:
		return fmt.Errorf("client: server deadline exceeded: %s", e.Msg)
	default:
		return fmt.Errorf("client: server error: %s", e.Msg)
	}
}

// effectiveTimeout resolves the server-side deadline to request: the call
// option's timeout, clamped by the context's remaining budget so the
// server never works past the moment the client stops listening.
func effectiveTimeout(ctx context.Context, opt time.Duration) (time.Duration, error) {
	eff := opt
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return 0, fmt.Errorf("client: %w", context.DeadlineExceeded)
		}
		if eff == 0 || rem < eff {
			eff = rem
		}
	}
	return eff, nil
}

// binConn is one persistent pipelined connection: a writer-side mutex
// serializes frame writes, a reader goroutine demultiplexes response
// frames to pending requests by id, and any I/O or framing error is sticky
// — it fails every pending request and retires the connection.
type binConn struct {
	c    net.Conn
	wmu  sync.Mutex // serializes whole-frame writes
	dead chan struct{}

	// free holds payload buffers that consumers have decoded and handed
	// back (recycle) for the reader to fill with later frames. It holds
	// more than a consumer that keeps up leaves in flight; when it is
	// empty the reader allocates, when it is full the buffer is dropped.
	free chan []byte

	mu      sync.Mutex // guards pending, err
	pending map[uint64]*pendingReq
	err     error

	nextID atomic.Uint64
}

// pendingReq is one in-flight request's demultiplexing endpoint.
type pendingReq struct {
	id     uint64
	bc     *binConn
	ch     chan wire.Frame
	done   chan struct{}
	cancel func()
}

func newBinConn(c net.Conn) *binConn {
	bc := &binConn{
		c:       c,
		dead:    make(chan struct{}),
		free:    make(chan []byte, 8),
		pending: make(map[uint64]*pendingReq),
	}
	go bc.readLoop()
	return bc
}

// maxRecycledPayload is the largest payload buffer kept for reuse: a
// default batch of records in up to 14 dimensions. Bigger ones are rare and
// go to the collector.
const maxRecycledPayload = 1 << 18

// recycle hands the payload of a frame this connection read back to its
// reader. The caller must have finished with every byte: the next frame
// overwrites them.
func (bc *binConn) recycle(payload []byte) {
	if cap(payload) == 0 || cap(payload) > maxRecycledPayload {
		return
	}
	select {
	case bc.free <- payload[:0]:
	default:
	}
}

func (bc *binConn) alive() bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.err == nil
}

// fail retires the connection: records the first error, closes the socket
// (unblocking the reader), and signals every pending request.
func (bc *binConn) fail(err error) {
	bc.mu.Lock()
	if bc.err == nil {
		bc.err = err
		close(bc.dead)
		bc.c.Close()
	}
	bc.mu.Unlock()
}

func (bc *binConn) failure() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.err == nil {
		return errors.New("client: connection failed")
	}
	return bc.err
}

// readLoop demultiplexes response frames to pending requests until the
// connection dies. Frames for unregistered ids (canceled requests) are
// dropped.
func (bc *binConn) readLoop() {
	br := bufio.NewReaderSize(bc.c, 1<<16)
	for {
		var buf []byte
		select {
		case buf = <-bc.free:
		default:
		}
		f, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			bc.fail(fmt.Errorf("client: wire read: %w", err))
			return
		}
		bc.mu.Lock()
		pr := bc.pending[f.ID]
		bc.mu.Unlock()
		if pr == nil {
			bc.recycle(f.Payload)
			continue
		}
		select {
		case pr.ch <- f:
		case <-pr.done:
			bc.recycle(f.Payload)
		case <-bc.dead:
			return
		}
	}
}

// send registers a fresh request id and writes one request frame.
// Write failures retire the connection and are retryable — the request
// may not have reached the server, and reads are idempotent.
func (bc *binConn) send(ftype uint8, payload []byte) (*pendingReq, error) {
	pr, _, err := bc.sendClassified(ftype, payload)
	return pr, err
}

// sendClassified is send with the information write callers need: sent
// reports whether the frame write was attempted on the socket — false
// means the request provably never left this process, true with an error
// means its fate is unknown. The error itself is retryable either way; the
// write path upgrades sent-but-failed attempts to *MaybeAppliedError.
func (bc *binConn) sendClassified(ftype uint8, payload []byte) (pr *pendingReq, sent bool, err error) {
	id := bc.nextID.Add(1)
	pr = &pendingReq{
		id:   id,
		bc:   bc,
		ch:   make(chan wire.Frame, 32),
		done: make(chan struct{}),
	}
	var once sync.Once
	pr.cancel = func() {
		once.Do(func() {
			close(pr.done)
			bc.mu.Lock()
			delete(bc.pending, id)
			bc.mu.Unlock()
		})
	}
	bc.mu.Lock()
	if bc.err != nil {
		err := bc.err
		bc.mu.Unlock()
		return nil, false, retryable(err)
	}
	bc.pending[id] = pr
	bc.mu.Unlock()

	buf := wire.AppendFrame(nil, wire.Frame{Type: ftype, ID: id, Payload: payload})
	bc.wmu.Lock()
	_, werr := bc.c.Write(buf)
	bc.wmu.Unlock()
	if werr != nil {
		bc.fail(fmt.Errorf("client: wire write: %w", werr))
		pr.cancel()
		return nil, true, retryable(werr)
	}
	return pr, true, nil
}

// wait blocks for the request's next response frame.
func (pr *pendingReq) wait(ctx context.Context, bc *binConn) (wire.Frame, error) {
	select {
	case f := <-pr.ch:
		return f, nil
	case <-bc.dead:
		// Drain any frame racing with the death notification.
		select {
		case f := <-pr.ch:
			return f, nil
		default:
		}
		return wire.Frame{}, retryable(bc.failure())
	case <-ctx.Done():
		return wire.Frame{}, fmt.Errorf("client: %w", ctx.Err())
	}
}
