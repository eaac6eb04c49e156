package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
	wiretext "repro/internal/wire/text"
)

// ErrResponseTooLarge is the sentinel wrapped by errors reporting that an
// HTTP response body exceeded the transport's cap; test with errors.Is.
// The binary transport never buffers whole bodies, so it cannot produce
// this error.
var ErrResponseTooLarge = errors.New("client: response too large")

// DefaultMaxResponseBytes caps HTTP response bodies (1 GiB). Scans larger
// than this should stream over the binary transport instead of buffering.
const DefaultMaxResponseBytes = int64(1) << 30

// Transport performs single attempts against one daemon: open a read
// stream for a box or for raw curve intervals, or perform one write. Each
// method issues exactly one request — the Client layers the bounded retry
// loop on top, and builds its buffered reads as open + Stream.Collect
// inside one attempt. A Transport reports a failure the Client may repeat
// by returning a *RetryableError, a Put that may have reached the server
// by returning a *MaybeAppliedError, and anything else is terminal; the
// two transports in this package decide which through one table
// (outcomes). timeout > 0 is the server-side deadline to request; ctx
// bounds the attempt client-side.
type Transport interface {
	// QueryStream opens one attempt of a box query. A returned Stream
	// means the server accepted the request; later failures surface from
	// Stream.Next.
	QueryStream(ctx context.Context, b query.Box, timeout time.Duration) (*Stream, error)
	// ScanStream opens one attempt of a raw curve-interval scan, with the
	// same acceptance split as QueryStream.
	ScanStream(ctx context.Context, ivs []query.Interval, timeout time.Duration) (*Stream, error)
	// Write performs one attempt of op. rec is ignored by OpFlush.
	Write(ctx context.Context, op WriteOp, rec store.Record, timeout time.Duration) (server.WriteResponse, error)
	// Close releases the transport's persistent resources.
	Close() error
}

// WriteOp names the operation of one Transport.Write attempt.
type WriteOp uint8

const (
	OpPut    WriteOp = iota // durable insert; not idempotent
	OpDelete                // durable delete of every instance equal to the record
	OpFlush                 // persist every memtable to an on-disk run
)

// writeOps is how each write travels through either door and which column
// of the outcome table judges its failures.
var writeOps = [...]struct {
	path  string
	frame uint8
	kind  opKind
}{
	OpPut:    {"/put", wire.TPut, kindPut},
	OpDelete: {"/delete", wire.TDelete, kindIdempotent},
	OpFlush:  {"/flush", wire.TFlush, kindIdempotent},
}

// JSONTransport speaks the daemon's HTTP/JSON protocol: the door every
// daemon opens, the one curl can drive, and the only one that carries
// /digest, /wireinfo and the health endpoints. The zero value is not
// usable; set Base.
type JSONTransport struct {
	// Base is the daemon's HTTP base URL, e.g. "http://127.0.0.1:7171".
	Base string
	// HTTPClient substitutes the underlying client (default
	// http.DefaultClient).
	HTTPClient *http.Client
	// MaxResponseBytes caps response-body buffering (default
	// DefaultMaxResponseBytes). Larger bodies fail with
	// ErrResponseTooLarge.
	MaxResponseBytes int64
}

// QueryStream implements Transport. JSON has no streaming encoding, so the
// whole answer is fetched by the open and replayed as a one-batch stream.
func (t *JSONTransport) QueryStream(ctx context.Context, b query.Box, timeout time.Duration) (*Stream, error) {
	q := url.Values{"lo": {wiretext.FormatPoint(b.Lo)}, "hi": {wiretext.FormatPoint(b.Hi)}}
	return t.read(ctx, "/query", q, timeout)
}

// ScanStream implements Transport, buffered like QueryStream.
func (t *JSONTransport) ScanStream(ctx context.Context, ivs []query.Interval, timeout time.Duration) (*Stream, error) {
	return t.read(ctx, "/scan", url.Values{"ivs": {wiretext.FormatIntervals(ivs)}}, timeout)
}

func (t *JSONTransport) read(ctx context.Context, path string, q url.Values, timeout time.Duration) (*Stream, error) {
	resp, err := doJSON[server.QueryResponse](ctx, t, kindRead, http.MethodGet, path, q, timeout, nil)
	if err != nil {
		return nil, err
	}
	return newBufferedStream(&resp), nil
}

// Write implements Transport: POST /put, /delete or /flush.
func (t *JSONTransport) Write(ctx context.Context, op WriteOp, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	var body []byte
	if op != OpFlush {
		var err error
		if body, err = json.Marshal(server.WriteRequest{Point: rec.Point, Payload: rec.Payload}); err != nil {
			return server.WriteResponse{}, fmt.Errorf("client: %w", err)
		}
	}
	return doJSON[server.WriteResponse](ctx, t, writeOps[op].kind, http.MethodPost, writeOps[op].path, nil, timeout, body)
}

// Close implements Transport; the http.Client may be shared, so nothing is
// torn down.
func (t *JSONTransport) Close() error { return nil }

// doJSON is one HTTP attempt of an operation of kind k whose 200 body is a
// JSON T.
func doJSON[T any](ctx context.Context, t *JSONTransport, k opKind, method, path string, q url.Values, timeout time.Duration, body []byte) (T, error) {
	var out T
	_, b, err := t.do(ctx, method, path, q, timeout, body)
	if err != nil {
		return out, resolve(k, err)
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return out, fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return out, nil
}

// do is the one HTTP attempt: build the request (a timeout > 0 is set on
// q as the server-side deadline to ask for), send it, read the body under
// the cap. It returns the status once a response header arrived (0
// before that) and the body of a 200. Every other end is an error: a
// *failure for resolve to judge — the transport broke (a failed dial
// provably sent nothing; any other failure may have delivered the request),
// the caller's ctx ended the attempt, or the server answered a failure
// class — or a plain, terminal error for an answer that arrived but cannot
// be used: over the cap, or a 200 cut short (the bytes consumed cannot be
// unconsumed and a 200 means the work was done, so it is never retried).
func (t *JSONTransport) do(ctx context.Context, method, path string, q url.Values, timeout time.Duration, body []byte) (int, []byte, error) {
	if timeout > 0 {
		if q == nil {
			q = url.Values{}
		}
		q.Set("timeout", timeout.String())
	}
	u := strings.TrimRight(t.Base, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("client: %w", err)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := t.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, nil, canceled(ctx, true)
		}
		var op *net.OpError
		dialed := !(errors.As(err, &op) && op.Op == "dial")
		return 0, nil, broken(dialed, err)
	}
	limit := t.MaxResponseBytes
	if limit <= 0 {
		limit = DefaultMaxResponseBytes
	}
	b, readErr := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	resp.Body.Close()
	switch {
	case int64(len(b)) > limit:
		return resp.StatusCode, nil, fmt.Errorf("%w: %s body exceeds %d bytes (status %d)", ErrResponseTooLarge, path, limit, resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		hint := time.Duration(-1)
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
			hint = time.Duration(sec) * time.Second
		}
		return resp.StatusCode, nil, refused(classOfStatus(resp.StatusCode), hint, errorBody(b))
	case readErr != nil:
		return resp.StatusCode, nil, fmt.Errorf("client: %s response truncated after %d bytes (not retried): %w", path, len(b), readErr)
	}
	return resp.StatusCode, b, nil
}

// errorBody extracts the server's JSON error message, falling back to the
// raw bytes.
func errorBody(body []byte) string {
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(body))
}
