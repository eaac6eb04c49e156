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
	wiretext "repro/internal/wire/text"
)

// ErrResponseTooLarge is the sentinel wrapped by errors reporting that a
// JSON response body exceeded the client's configured cap; test with
// errors.Is. The binary transport never buffers whole bodies, so it cannot
// produce this error.
var ErrResponseTooLarge = errors.New("client: response too large")

// DefaultMaxResponseBytes caps JSON response bodies (1 GiB). Scans larger
// than this should stream over the binary transport instead of buffering.
const DefaultMaxResponseBytes = int64(1) << 30

// Transport performs single attempts of the daemon's RPCs. Each method
// issues exactly one request — the Client layers the bounded retry loop on
// top, so a Transport reports a retryable failure by returning a
// *RetryableError and a terminal one by returning any other error. Write
// attempts add a third class: a *MaybeAppliedError reports a failure after
// the request may have reached the server — the Client repeats those only
// for idempotent operations, never for Put.
type Transport interface {
	// Query performs one attempt of a box query. timeout > 0 is the
	// server-side deadline to request; ctx bounds the attempt client-side.
	Query(ctx context.Context, b query.Box, timeout time.Duration) (server.QueryResponse, error)
	// Scan performs one attempt of a raw curve-interval scan.
	Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (server.QueryResponse, error)
	// ScanStream opens one attempt of a streaming scan. A returned Stream
	// means the server accepted the request; later failures surface from
	// Stream.Next and are not retried by the Client.
	ScanStream(ctx context.Context, ivs []query.Interval, timeout time.Duration) (*Stream, error)
	// QueryStream opens one attempt of a streaming box query, with the
	// same acceptance/retry split as ScanStream.
	QueryStream(ctx context.Context, b query.Box, timeout time.Duration) (*Stream, error)
	// Put performs one attempt of a durable record insert. Failures after
	// the request may have left the client are *MaybeAppliedError, never
	// plain retryable — puts are not idempotent.
	Put(ctx context.Context, rec store.Record, timeout time.Duration) (server.WriteResponse, error)
	// Delete performs one attempt of a durable record delete, with the
	// same classification contract as Put.
	Delete(ctx context.Context, rec store.Record, timeout time.Duration) (server.WriteResponse, error)
	// Flush performs one attempt of a full-daemon memtable flush.
	Flush(ctx context.Context, timeout time.Duration) (server.WriteResponse, error)
	// Close releases the transport's persistent resources.
	Close() error
}

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

// retryable wraps err as hintless-retryable.
func retryable(err error) *RetryableError {
	return &RetryableError{RetryAfter: -1, Err: err}
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

func (t *JSONTransport) hc() *http.Client {
	if t.HTTPClient != nil {
		return t.HTTPClient
	}
	return http.DefaultClient
}

func (t *JSONTransport) maxBody() int64 {
	if t.MaxResponseBytes > 0 {
		return t.MaxResponseBytes
	}
	return DefaultMaxResponseBytes
}

// Query implements Transport.
func (t *JSONTransport) Query(ctx context.Context, b query.Box, timeout time.Duration) (server.QueryResponse, error) {
	v := url.Values{}
	v.Set("lo", wiretext.FormatPoint(b.Lo))
	v.Set("hi", wiretext.FormatPoint(b.Hi))
	if timeout > 0 {
		v.Set("timeout", timeout.String())
	}
	return t.get(ctx, strings.TrimRight(t.Base, "/")+"/query?"+v.Encode())
}

// Scan implements Transport.
func (t *JSONTransport) Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (server.QueryResponse, error) {
	v := url.Values{}
	v.Set("ivs", wiretext.FormatIntervals(ivs))
	if timeout > 0 {
		v.Set("timeout", timeout.String())
	}
	return t.get(ctx, strings.TrimRight(t.Base, "/")+"/scan?"+v.Encode())
}

// ScanStream implements Transport. JSON has no streaming encoding, so the
// whole response is fetched in this call and replayed as a one-batch
// stream — the API is uniform, only the transfer isn't incremental.
func (t *JSONTransport) ScanStream(ctx context.Context, ivs []query.Interval, timeout time.Duration) (*Stream, error) {
	resp, err := t.Scan(ctx, ivs, timeout)
	if err != nil {
		return nil, err
	}
	return newBufferedStream(resp), nil
}

// QueryStream implements Transport as a buffered shim, like ScanStream.
func (t *JSONTransport) QueryStream(ctx context.Context, b query.Box, timeout time.Duration) (*Stream, error) {
	resp, err := t.Query(ctx, b, timeout)
	if err != nil {
		return nil, err
	}
	return newBufferedStream(resp), nil
}

// Put implements Transport: POST /put.
func (t *JSONTransport) Put(ctx context.Context, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	return t.postWrite(ctx, "/put", &server.WriteRequest{Point: rec.Point, Payload: rec.Payload}, timeout)
}

// Delete implements Transport: POST /delete.
func (t *JSONTransport) Delete(ctx context.Context, rec store.Record, timeout time.Duration) (server.WriteResponse, error) {
	return t.postWrite(ctx, "/delete", &server.WriteRequest{Point: rec.Point, Payload: rec.Payload}, timeout)
}

// Flush implements Transport: POST /flush.
func (t *JSONTransport) Flush(ctx context.Context, timeout time.Duration) (server.WriteResponse, error) {
	return t.postWrite(ctx, "/flush", nil, timeout)
}

// postWrite runs one write attempt, classifying failures by whether the
// request can have reached the daemon's write path: a dial-phase failure
// or a pre-application refusal (429 shed, 503 draining — both answered
// before the backend touches the WAL) is retryable; a transport failure
// after the request left, or a server-side deadline, is *MaybeAppliedError
// — the WAL may already hold the write.
func (t *JSONTransport) postWrite(ctx context.Context, path string, body *server.WriteRequest, timeout time.Duration) (server.WriteResponse, error) {
	if timeout > 0 {
		path += "?timeout=" + timeout.String()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return server.WriteResponse{}, fmt.Errorf("client: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(t.Base, "/")+path, rd)
	if err != nil {
		return server.WriteResponse{}, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.hc().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's deadline ended the attempt; whether the server
			// applied the write is unknowable.
			return server.WriteResponse{}, maybeApplied(fmt.Errorf("client: %w", ctx.Err()))
		}
		if isDialError(err) {
			// The connection was never established; nothing reached the
			// server.
			return server.WriteResponse{}, retryable(err)
		}
		return server.WriteResponse{}, maybeApplied(err)
	}
	limit := t.maxBody()
	rbody, readErr := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	resp.Body.Close()
	if int64(len(rbody)) > limit {
		return server.WriteResponse{}, fmt.Errorf("%w: body exceeds %d bytes (status %d)", ErrResponseTooLarge, limit, resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if readErr != nil {
			// The server answered 200 — the write applied — but the body
			// broke; report success-shaped data loss as a terminal error
			// rather than tempting a duplicate-producing retry.
			return server.WriteResponse{}, fmt.Errorf("client: write acknowledged but response truncated after %d bytes (not retried): %w", len(rbody), readErr)
		}
		var out server.WriteResponse
		if err := json.Unmarshal(rbody, &out); err != nil {
			return server.WriteResponse{}, fmt.Errorf("client: decoding response: %w", err)
		}
		return out, nil
	case http.StatusTooManyRequests:
		return server.WriteResponse{}, &RetryableError{
			RetryAfter: retryAfterHint(resp),
			Err:        fmt.Errorf("%w: %s", ErrOverloaded, errorBody(rbody)),
		}
	case http.StatusServiceUnavailable:
		return server.WriteResponse{}, &RetryableError{
			RetryAfter: retryAfterHint(resp),
			Err:        fmt.Errorf("%w: %s", ErrUnavailable, errorBody(rbody)),
		}
	case http.StatusForbidden:
		return server.WriteResponse{}, fmt.Errorf("%w: %s", ErrReadOnly, errorBody(rbody))
	case http.StatusGatewayTimeout:
		// The deadline expired server-side, possibly mid-WAL-sync.
		return server.WriteResponse{}, maybeApplied(fmt.Errorf("client: server deadline exceeded: %s", errorBody(rbody)))
	default:
		return server.WriteResponse{}, fmt.Errorf("client: server returned %d: %s", resp.StatusCode, errorBody(rbody))
	}
}

// isDialError reports whether err failed before a connection existed —
// the one transport-failure class where a write attempt provably never
// reached the server.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// Close implements Transport; the http.Client may be shared, so nothing is
// torn down.
func (t *JSONTransport) Close() error { return nil }

// get runs one GET attempt for a QueryResponse, classifying the failure
// modes: transport errors before a response and 429/503 answers are
// retryable; a consumed-but-broken body and every other status are
// terminal.
func (t *JSONTransport) get(ctx context.Context, reqURL string) (server.QueryResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, reqURL, nil)
	if err != nil {
		return server.QueryResponse{}, fmt.Errorf("client: %w", err)
	}
	resp, err := t.hc().Do(req)
	if err != nil {
		// No response at all: nothing was consumed, safe to retry —
		// unless the caller's context is what ended the attempt.
		if ctx.Err() != nil {
			return server.QueryResponse{}, fmt.Errorf("client: %w", ctx.Err())
		}
		return server.QueryResponse{}, retryable(err)
	}
	limit := t.maxBody()
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	resp.Body.Close()
	if int64(len(body)) > limit {
		return server.QueryResponse{}, fmt.Errorf("%w: body exceeds %d bytes (status %d)", ErrResponseTooLarge, limit, resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if readErr != nil {
			// Partial body: never retried.
			return server.QueryResponse{}, fmt.Errorf("client: response truncated after %d bytes (not retried): %w", len(body), readErr)
		}
		var out server.QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return server.QueryResponse{}, fmt.Errorf("client: decoding response: %w", err)
		}
		return out, nil
	case http.StatusTooManyRequests:
		return server.QueryResponse{}, &RetryableError{
			RetryAfter: retryAfterHint(resp),
			Err:        fmt.Errorf("%w: %s", ErrOverloaded, errorBody(body)),
		}
	case http.StatusServiceUnavailable:
		return server.QueryResponse{}, &RetryableError{
			RetryAfter: retryAfterHint(resp),
			Err:        fmt.Errorf("%w: %s", ErrUnavailable, errorBody(body)),
		}
	default:
		// Complete non-retryable answer (400 bad box, 504 deadline, 500):
		// repeating it would repeat the failure.
		return server.QueryResponse{}, fmt.Errorf("client: server returned %d: %s", resp.StatusCode, errorBody(body))
	}
}

// retryAfterHint extracts the server's Retry-After header as a duration;
// negative means no hint.
func retryAfterHint(resp *http.Response) time.Duration {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil && sec >= 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return -1
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
