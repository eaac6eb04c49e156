package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
)

// opKind names the six operations a request can carry.
type opKind uint8

const (
	opQuery opKind = iota
	opScan
	opDigest
	opPut
	opDelete
	opFlush
)

// request is one decoded request, the same whichever door it came through.
type request struct {
	op      opKind
	box     query.Box        // opQuery
	ivs     []query.Interval // opScan, opDigest
	rec     store.Record     // opPut, opDelete
	timeout time.Duration    // requested deadline; 0 = none, take the default
}

// exchange is one request as its codec sees it: how to decode it, and how
// to render each outcome. The pipeline calls decode once, then either the
// success methods (batch* then trailer, or digest, or ack) or fail.
type exchange interface {
	decode() (request, error)
	batch(recs []store.Record) error
	trailer(res service.Result, elapsedUS int64) error
	digest(d service.RangeDigest, elapsedUS int64) error
	ack(a WriteResponse, elapsedUS int64) error
	// fail renders a classified failure; a class whose status is 0 means
	// nobody is listening and nothing is sent.
	fail(c failClass, msg string)
}

// failClass is the outcome vocabulary of a failed request. failures maps
// each class to what either door says and which server.* counter moves.
type failClass uint8

const (
	failBadRequest failClass = iota
	failMethod
	failShed
	failDeadline
	failClientGone
	failDraining
	failUnavailable
	failReadOnly
	failWrite
	failInternal
	numFailClasses
)

var failures = [numFailClasses]struct {
	status     int   // HTTP status; 0 = stay silent on both doors
	code       uint8 // wire.Code* of the TError frame
	retryAfter bool  // carries Retry-After / the TError hint
	counter    string
}{
	failBadRequest:  {http.StatusBadRequest, wire.CodeBadRequest, false, "server.bad_request"},
	failMethod:      {http.StatusMethodNotAllowed, wire.CodeBadRequest, false, "server.bad_request"},
	failShed:        {http.StatusTooManyRequests, wire.CodeOverloaded, true, "server.shed"},
	failDeadline:    {http.StatusGatewayTimeout, wire.CodeDeadline, false, "server.deadline_exceeded"},
	failClientGone:  {0, 0, false, "server.canceled"},
	failDraining:    {http.StatusServiceUnavailable, wire.CodeUnavailable, true, "server.draining_rejected"},
	failUnavailable: {http.StatusServiceUnavailable, wire.CodeUnavailable, true, "server.errors"},
	failReadOnly:    {http.StatusForbidden, wire.CodeReadOnly, false, "server.bad_request"},
	failWrite:       {http.StatusBadRequest, wire.CodeBadRequest, false, "server.errors"},
	failInternal:    {http.StatusInternalServerError, wire.CodeInternal, false, "server.errors"},
}

// classed pins an error to a failure class whatever operation raised it:
// codecs wrap decode and encode errors in it, and the exported Backend
// sentinels are values of it.
type classed struct {
	class failClass
	error
}

func (c classed) Unwrap() error { return c.error }

var errDraining error = classed{failDraining, errors.New("draining")}

// classify is the one (operation, error) → failure class mapping, shared by
// every operation and both codecs. Errors nothing claims are blamed by
// operation: a box was validated at decode so a failed query is the
// backend's fault; scans and digests validate their intervals in the
// backend, so it is the client's; a failed write keeps the 400 the write
// endpoints have always answered but counts as a server error.
func classify(op opKind, err error) failClass {
	var c classed
	switch {
	case errors.As(err, &c):
		return c.class
	case errors.Is(err, context.DeadlineExceeded):
		return failDeadline
	case errors.Is(err, context.Canceled):
		return failClientGone
	case errors.Is(err, service.ErrShuttingDown), errors.Is(err, store.ErrClosed):
		return failDraining
	case errors.Is(err, service.ErrReadOnly):
		return failReadOnly
	case errors.Is(err, service.ErrDigestUnavailable):
		return failUnavailable
	}
	switch op {
	case opQuery:
		return failInternal
	case opScan, opDigest:
		return failBadRequest
	default:
		return failWrite
	}
}

// serve is the request pipeline, written once for every operation, both
// doors and both backends: decode → drain check → clamp deadline → admit →
// execute → encode → classify failure → count.
func (s *Server) serve(ctx context.Context, x exchange) {
	s.reqTotal.Inc()
	req, err := x.decode()
	if err == nil {
		err = s.admitAndRun(ctx, req, x)
	}
	if err != nil {
		class := classify(req.op, err)
		s.failed[class].Inc()
		x.fail(class, err.Error())
		return
	}
	s.reqOK.Inc()
}

func (s *Server) admitAndRun(ctx context.Context, req request, x exchange) error {
	if s.draining.Load() {
		return errDraining
	}
	if timeout := s.clampTimeout(req.timeout); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	waited, err := s.lim.acquire(ctx)
	s.queueWaitH.Observe(waited.Microseconds())
	if err != nil {
		return fmt.Errorf("queued for admission: %w", err)
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.lim.release()
	}()

	start := time.Now()
	var elapsed time.Duration
	switch req.op {
	case opQuery, opScan:
		var st Stream
		if req.op == opQuery {
			st, err = s.b.RangeStream(ctx, req.box)
		} else {
			st, err = s.b.ScanStream(ctx, req.ivs)
		}
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			recs, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := x.batch(recs); err != nil {
				return err
			}
		}
		elapsed = time.Since(start)
		err = x.trailer(st.Trailer(), elapsed.Microseconds())
	case opDigest:
		var d service.RangeDigest
		if d, err = s.b.Digest(ctx, req.ivs); err != nil {
			return err
		}
		elapsed = time.Since(start)
		err = x.digest(d, elapsed.Microseconds())
	default:
		ack := singleReplicaAck
		switch req.op {
		case opPut:
			ack, err = s.b.Put(ctx, req.rec)
		case opDelete:
			ack, err = s.b.Delete(ctx, req.rec)
		case opFlush:
			err = s.b.Flush(ctx)
		}
		if err != nil {
			return err
		}
		elapsed = time.Since(start)
		err = x.ack(ack, elapsed.Microseconds())
	}
	if err != nil {
		return err
	}
	s.latency.Observe(elapsed.Microseconds())
	return nil
}

// clampTimeout resolves a requested deadline against the default and the
// cap. Zero means "no deadline requested" and takes the server default.
func (s *Server) clampTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.defaultTimeout
	}
	if s.maxTimeout > 0 && d > s.maxTimeout {
		d = s.maxTimeout
	}
	return d
}
