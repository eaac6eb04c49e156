package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/wire"
)

// ErrOverloaded is the sentinel wrapped by errors reporting that the server
// shed the request (429 / CodeOverloaded) on every attempt; test with
// errors.Is.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrUnavailable is the sentinel wrapped by errors reporting that the
// server was draining or down (503 / CodeUnavailable) on every attempt.
var ErrUnavailable = errors.New("client: server unavailable")

// ErrReadOnly is the sentinel wrapped by errors reporting that the daemon
// was started without a durable directory (403 / CodeReadOnly); test with
// errors.Is. Read-only answers are terminal — the daemon will not grow a
// WAL by being asked again.
var ErrReadOnly = errors.New("client: server is read-only")

// RetryableError marks a failed attempt the Client may repeat: the server
// shed or refused the request, or the transport failed before a response
// was consumed.
type RetryableError struct {
	// RetryAfter is the server's backoff hint; negative means the server
	// gave none and the client's own backoff applies. Zero is meaningful:
	// retry immediately.
	RetryAfter time.Duration
	// Err is the underlying failure.
	Err error
}

func (e *RetryableError) Error() string { return e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }

// MaybeAppliedError marks a failed Put whose request may have reached the
// server: the connection died after the request left, the deadline expired
// server-side, or the server failed after entering the write path. It is
// never retried — a Put that may already sit in the WAL would be inserted
// twice. Delete and Flush are idempotent, so the same failures are simply
// retried for them. Refusals the server signals before touching any state
// (shed, draining, read-only) are never wrapped this way; they are the
// server marking the attempt safe to repeat or pointless to repeat.
type MaybeAppliedError struct {
	Err error
}

func (e *MaybeAppliedError) Error() string {
	return fmt.Sprintf("client: write may have been applied: %v", e.Err)
}
func (e *MaybeAppliedError) Unwrap() error { return e.Err }

// class is what one failed attempt reduces to on either door: the server's
// failure class as announced by an HTTP status or a TError code (the rows
// of server.failures the client can tell apart), or one of the two ends the
// client observes itself.
type class uint8

const (
	classOverloaded  class = iota // shed by admission, before any work
	classUnavailable              // draining or down, before any work
	classReadOnly                 // a write to a daemon with no write path
	classBadRequest               // refused as posed; asking again changes nothing
	classDeadline                 // the deadline expired server-side
	classInternal                 // the server failed, or answered off-protocol
	classBroken                   // the transport broke before a complete answer
	classCanceled                 // the caller's ctx ended the attempt
	numClasses
)

// opKind is the column of the outcome table: what repeating the operation
// could do.
type opKind uint8

const (
	kindRead       opKind = iota // queries, scans, digests, pings
	kindPut                      // repeating it inserts a duplicate
	kindIdempotent               // delete, flush
	numKinds
)

type action uint8

const (
	actTerminal action = iota // returned as is
	actRetry                  // *RetryableError: the loop repeats it
	actMaybe                  // *MaybeAppliedError
)

// outcomes is the client's mirror of server.failures: how each failure
// class is announced on the two doors, and what the caller gets for it per
// operation kind. docs/SERVER.md "Failure classes" prints the same table.
var outcomes = [numClasses]struct {
	status   int   // HTTP status announcing the class; 0 = never announced
	code     uint8 // wire.Code* announcing it
	sentinel error // wrapped into the caller's error; nil = the cause as is
	act      [numKinds]action
}{
	classOverloaded:  {http.StatusTooManyRequests, wire.CodeOverloaded, ErrOverloaded, [numKinds]action{actRetry, actRetry, actRetry}},
	classUnavailable: {http.StatusServiceUnavailable, wire.CodeUnavailable, ErrUnavailable, [numKinds]action{actRetry, actRetry, actRetry}},
	classReadOnly:    {http.StatusForbidden, wire.CodeReadOnly, ErrReadOnly, [numKinds]action{}},
	classBadRequest:  {http.StatusBadRequest, wire.CodeBadRequest, errors.New("client: server rejected request"), [numKinds]action{}},
	classDeadline:    {http.StatusGatewayTimeout, wire.CodeDeadline, errors.New("client: server deadline exceeded"), [numKinds]action{actTerminal, actMaybe, actRetry}},
	classInternal:    {http.StatusInternalServerError, wire.CodeInternal, errors.New("client: server error"), [numKinds]action{actTerminal, actMaybe, actRetry}},
	classBroken:      {act: [numKinds]action{actRetry, actMaybe, actRetry}},
	classCanceled:    {act: [numKinds]action{actTerminal, actMaybe, actTerminal}},
}

// classOfStatus is the one HTTP status → failure class mapping. A status no
// row claims is the server answering off-protocol.
func classOfStatus(status int) class {
	for c := range outcomes {
		if outcomes[c].status == status {
			return class(c)
		}
	}
	return classInternal
}

// classOfCode is the one TError code → failure class mapping.
func classOfCode(code uint8) class {
	for c := range outcomes {
		if outcomes[c].code == code {
			return class(c)
		}
	}
	return classInternal
}

// failure is one failed attempt before the table has been consulted. Both
// doors build it; only resolve reads it.
type failure struct {
	class class
	// sent reports whether the request can have left this process. False
	// (a failed dial, a connection found dead before the write) proves the
	// server never saw it.
	sent bool
	// hint is the server's Retry-After; negative = none.
	hint time.Duration
	err  error
}

func (f *failure) Error() string { return f.err.Error() }

// refused is a complete answer from the server announcing class c.
func refused(c class, hint time.Duration, msg string) *failure {
	return &failure{class: c, sent: true, hint: hint, err: errors.New(msg)}
}

// broken is a transport failure before a complete answer.
func broken(sent bool, err error) *failure {
	return &failure{class: classBroken, sent: sent, hint: -1, err: err}
}

// canceled is an attempt the caller's ctx ended.
func canceled(ctx context.Context, sent bool) *failure {
	return &failure{class: classCanceled, sent: sent, hint: -1, err: fmt.Errorf("client: %w", ctx.Err())}
}

// resolve turns one attempt's error into what the caller gets for an
// operation of kind k. Only a *failure is looked up; any other error is an
// answer that arrived but cannot be used (oversize, truncated, undecodable)
// and is terminal for every kind. A write that provably never left the
// process is as safe to repeat as a read.
func resolve(k opKind, err error) error {
	f, ok := err.(*failure)
	if !ok {
		return err
	}
	row := &outcomes[f.class]
	act := row.act[k]
	if act == actMaybe && !f.sent {
		act = row.act[kindRead]
	}
	err = f.err
	if row.sentinel != nil {
		err = fmt.Errorf("%w: %w", row.sentinel, f.err)
	}
	switch act {
	case actRetry:
		return &RetryableError{RetryAfter: f.hint, Err: err}
	case actMaybe:
		return &MaybeAppliedError{Err: err}
	}
	return err
}
