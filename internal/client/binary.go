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
// its connection died. A failed dial sent nothing: the daemon may be
// restarting, and any operation may be repeated.
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
			return nil, canceled(ctx, false)
		}
		return nil, broken(false, fmt.Errorf("client: dial %s: %w", t.Addr, err))
	}
	s.bc = newBinConn(nc)
	return s.bc, nil
}

// QueryStream implements Transport: a box query whose record batches arrive
// in curve order while the server is still scanning later intervals.
func (t *BinaryTransport) QueryStream(ctx context.Context, b query.Box, timeout time.Duration) (*Stream, error) {
	payload, err := wire.AppendQueryRequest(nil, wire.QueryRequest{Lo: b.Lo, Hi: b.Hi, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	return t.openStream(ctx, wire.TQuery, payload)
}

// ScanStream implements Transport: records arrive in curve-order batches
// while the server is still scanning later intervals.
func (t *BinaryTransport) ScanStream(ctx context.Context, ivs []query.Interval, timeout time.Duration) (*Stream, error) {
	payload, err := wire.AppendScanRequest(nil, wire.ScanRequest{Ivs: ivs, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	return t.openStream(ctx, wire.TScan, payload)
}

// Write implements Transport: one TPut, TDelete or TFlush frame, answered
// by a TWriteAck.
func (t *BinaryTransport) Write(ctx context.Context, op WriteOp, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	var payload []byte
	var err error
	if op == OpFlush {
		payload, err = wire.AppendFlushRequest(nil, wire.FlushRequest{Timeout: timeout})
	} else {
		payload, err = wire.AppendWriteRequest(nil, wire.WriteRequest{Point: rec.Point, Payload: rec.Payload, Timeout: timeout})
	}
	if err != nil {
		return server.WriteResponse{}, err
	}
	ack, err := roundTrip(ctx, t, writeOps[op].frame, payload, wire.TWriteAck, wire.DecodeWriteAckPayload)
	if err != nil {
		return server.WriteResponse{}, resolve(writeOps[op].kind, err)
	}
	return server.WriteResponse{OK: true, Acked: ack.Acked, Required: ack.Required}, nil
}

// Ping round-trips a TPing frame, reporting the daemon's readiness over
// the binary listener.
func (t *BinaryTransport) Ping(ctx context.Context) (bool, error) {
	p, err := roundTrip(ctx, t, wire.TPing, nil, wire.TPong, wire.DecodePongPayload)
	return p.Ready, resolve(kindRead, err)
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

// open is the one wire attempt: send one request frame on a pooled
// connection and wait for the first frame of the answer, so a refusal
// (shed, draining — sent before the server does any work) surfaces here.
// Every failure is a *failure for resolve to judge; the caller owns the
// returned request and must cancel it.
func (t *BinaryTransport) open(ctx context.Context, ftype uint8, payload []byte) (*pendingReq, wire.Frame, error) {
	bc, err := t.conn(ctx)
	if err != nil {
		return nil, wire.Frame{}, err
	}
	pr, err := bc.send(ftype, payload)
	if err != nil {
		return nil, wire.Frame{}, err
	}
	first, err := pr.next(ctx)
	if err != nil {
		pr.cancel()
		return nil, wire.Frame{}, err
	}
	return pr, first, nil
}

// roundTrip is open for the requests a single frame answers (writes,
// pings): the answer must be a want frame that decode accepts.
func roundTrip[T any](ctx context.Context, t *BinaryTransport, ftype uint8, payload []byte, want uint8, decode func([]byte) (T, error)) (T, error) {
	pr, f, err := t.open(ctx, ftype, payload)
	if err != nil {
		var zero T
		return zero, err
	}
	defer pr.cancel()
	return expect(pr.bc, f, want, decode)
}

// openStream opens a read: the first accepted frame is pushed back into
// the returned Stream, and only failures before it are the open's — and so
// the retry loop's — to see.
func (t *BinaryTransport) openStream(ctx context.Context, ftype uint8, payload []byte) (*Stream, error) {
	pr, pushback, err := t.open(ctx, ftype, payload)
	if err != nil {
		return nil, resolve(kindRead, err)
	}
	havePushback := true
	var slab []uint32
	return &Stream{stop: pr.cancel, recv: func(s *Stream) ([]store.Record, error) {
		f, err := pushback, error(nil)
		if havePushback {
			havePushback = false
		} else if f, err = pr.next(ctx); err != nil {
			return nil, err
		}
		if f.Type != wire.TBatch {
			if s.trailer, err = expect(pr.bc, f, wire.TTrailer, wire.DecodeTrailerPayload); err != nil {
				return nil, err
			}
			s.haveTrailer = true
			return nil, io.EOF
		}
		var recs []store.Record
		if recs, slab, err = wire.DecodeBatchInto(f.Payload, nil, slab); err != nil {
			return nil, pr.bc.violation(err)
		}
		// The records live in slab, which is not recycled (batches stay
		// valid after later Next calls); the payload is dead.
		pr.bc.recycle(f.Payload)
		return recs, nil
	}}, nil
}

// expect decodes a frame that must be of type want, handing its payload
// back to the connection's reader. Any other frame, or a payload decode
// rejects, is the server off-protocol: the connection is retired.
func expect[T any](bc *binConn, f wire.Frame, want uint8, decode func([]byte) (T, error)) (T, error) {
	var zero T
	if f.Type != want {
		return zero, bc.violation(fmt.Errorf("client: unexpected frame type 0x%02x, want 0x%02x", f.Type, want))
	}
	v, err := decode(f.Payload)
	if err != nil {
		return zero, bc.violation(err)
	}
	bc.recycle(f.Payload)
	return v, nil
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

// violation retires the connection over an answer that breaks the
// protocol and reports it as the server's failure: terminal for a read,
// maybe-applied for a put.
func (bc *binConn) violation(err error) *failure {
	bc.fail(err)
	return &failure{class: classInternal, sent: true, hint: -1, err: err}
}

// send registers a fresh request id and writes one request frame. A
// connection found dead before the write proves the request never left
// this process; a failed write retires the connection and leaves the
// request's fate unknown.
func (bc *binConn) send(ftype uint8, payload []byte) (*pendingReq, error) {
	id := bc.nextID.Add(1)
	pr := &pendingReq{
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
		return nil, broken(false, err)
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
		return nil, broken(true, werr)
	}
	return pr, nil
}

// next blocks for the request's next response frame. A TError frame comes
// back as the *failure it announces — this is the one place the client
// decodes one — as do a dead connection and an ended ctx.
func (pr *pendingReq) next(ctx context.Context) (wire.Frame, error) {
	var f wire.Frame
	select {
	case f = <-pr.ch:
	case <-pr.bc.dead:
		// Drain any frame racing with the death notification.
		select {
		case f = <-pr.ch:
		default:
			return wire.Frame{}, broken(true, pr.bc.failure())
		}
	case <-ctx.Done():
		return wire.Frame{}, canceled(ctx, true)
	}
	if f.Type != wire.TError {
		return f, nil
	}
	e, err := expect(pr.bc, f, wire.TError, wire.DecodeErrorPayload)
	if err != nil {
		return wire.Frame{}, err
	}
	hint := time.Duration(-1)
	if e.RetryAfterSec >= 0 {
		hint = time.Duration(e.RetryAfterSec) * time.Second
	}
	return wire.Frame{}, refused(classOfCode(e.Code), hint, e.Msg)
}
