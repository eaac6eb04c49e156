// Package client is the Go client for the sfcserved query daemon
// (internal/server). It speaks either of the daemon's two protocols behind
// one API: the HTTP/JSON endpoints (JSONTransport, the default) or the
// binary wire protocol with streaming scans (BinaryTransport,
// internal/wire), selected with WithTransport. The Client folds the
// serving-side backpressure signals into a bounded retry loop either way.
//
// Retry semantics mirror the store's RetryPolicy shape — bounded attempts,
// exponential backoff with deterministic jitter — with the network-side
// refinements: a shed/drain answer's Retry-After hint overrides the
// computed backoff, and a response whose body was only partially read is
// NEVER retried (the bytes already consumed cannot be unconsumed, so the
// client reports the truncation instead of silently re-reading).
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// ErrOverloaded is the sentinel wrapped by errors reporting that the server
// shed the request (429 / CodeOverloaded) on every attempt; test with
// errors.Is.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrUnavailable is the sentinel wrapped by errors reporting that the
// server was draining or down (503 / CodeUnavailable) on every attempt.
var ErrUnavailable = errors.New("client: server unavailable")

// RetryPolicy bounds the per-query retry loop, mirroring the shape of
// store.RetryPolicy. Backoff here is real (the goroutine sleeps), because
// the client faces a real network, not a simulated device.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per query (default 4)
	BaseBackoff time.Duration // backoff after the first failed attempt (default 20ms)
	MaxBackoff  time.Duration // exponential cap (default 1s)
	JitterSeed  int64         // seeds the deterministic ±25% jitter
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts == 0 {
		rp.MaxAttempts = 4
	}
	if rp.BaseBackoff == 0 {
		rp.BaseBackoff = 20 * time.Millisecond
	}
	if rp.MaxBackoff == 0 {
		rp.MaxBackoff = time.Second
	}
	return rp
}

// backoff returns the wait before retry number `retry` (1-based) of query
// number q: exponential in the retry count, capped at MaxBackoff, with a
// deterministic ±25% jitter so retries across clients decorrelate
// reproducibly.
func (rp RetryPolicy) backoff(q uint64, retry int) time.Duration {
	d := rp.BaseBackoff
	for i := 1; i < retry && d < rp.MaxBackoff; i++ {
		d *= 2
	}
	if d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	h := splitmix64(uint64(rp.JitterSeed) ^ q*0x9e3779b97f4a7c15 ^ uint64(retry)<<48)
	jitter := 0.75 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * jitter)
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash used
// for deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stats counts the client's traffic; every field is atomic, so one Client
// is safe to share across goroutines.
type Stats struct {
	Queries  int64 // Query/Scan/ScanStream calls
	Attempts int64 // requests issued across all transports
	Retries  int64 // attempts beyond the first
	Shed     int64 // overload answers observed (retried or not)
}

// Client queries one sfcserved daemon. Methods are safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	tr      Transport
	maxBody int64

	// sleep is swapped by tests to observe requested backoff without
	// waiting it out.
	sleep func(ctx context.Context, d time.Duration) error

	queries  atomic.Int64
	attempts atomic.Int64
	retries  atomic.Int64
	shed     atomic.Int64
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (default:
// http.DefaultClient) used by the JSON transport and the HTTP side
// channels (Readyz, MetricsJSON, WireAddr).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryPolicy replaces the retry policy; zero fields take defaults.
func WithRetryPolicy(rp RetryPolicy) Option {
	return func(c *Client) { c.retry = rp.withDefaults() }
}

// WithTransport selects the query transport: a *BinaryTransport pointed at
// the daemon's -wire-addr listener, a *JSONTransport, or any custom
// implementation. Without this option the client speaks JSON against the
// base URL.
func WithTransport(t Transport) Option { return func(c *Client) { c.tr = t } }

// WithMaxResponseBytes caps JSON response-body buffering (default
// DefaultMaxResponseBytes); larger bodies fail with ErrResponseTooLarge.
// It configures the default JSON transport only — an explicit
// WithTransport takes its own limits.
func WithMaxResponseBytes(n int64) Option { return func(c *Client) { c.maxBody = n } }

// CallOption configures one Query/Scan/ScanStream call.
type CallOption func(*callOpts)

type callOpts struct {
	timeout time.Duration
}

// WithTimeout asks the server to bound this request's service time; the
// server still clamps it to its own -max-timeout. Zero (the default) takes
// the server's default deadline. The caller's ctx bounds the whole retry
// loop client-side regardless.
func WithTimeout(d time.Duration) CallOption { return func(o *callOpts) { o.timeout = d } }

func applyCallOpts(opts []CallOption) callOpts {
	var o callOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// New builds a client for the daemon at base (e.g.
// "http://127.0.0.1:7171").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    http.DefaultClient,
		retry: RetryPolicy{}.withDefaults(),
		sleep: sleepCtx,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	if c.tr == nil {
		c.tr = &JSONTransport{Base: c.base, HTTPClient: c.hc, MaxResponseBytes: c.maxBody}
	}
	return c
}

// Transport returns the transport the client queries through.
func (c *Client) Transport() Transport { return c.tr }

// Close releases the transport's persistent connections.
func (c *Client) Close() error { return c.tr.Close() }

// Stats returns a snapshot of the traffic counters.
func (c *Client) Stats() Stats {
	return Stats{
		Queries:  c.queries.Load(),
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Shed:     c.shed.Load(),
	}
}

// QueryBox answers the box query against the daemon. ctx bounds the whole
// retry loop on the client side; WithTimeout sets the server-side
// deadline. Retryable failures — transport errors before any response,
// shed, draining — are retried within the policy's budget, honoring a
// Retry-After hint over the computed backoff. A response that was
// partially consumed fails immediately: the attempt is not repeatable.
func (c *Client) QueryBox(ctx context.Context, b query.Box, opts ...CallOption) (server.QueryResponse, error) {
	o := applyCallOpts(opts)
	return doRetry(ctx, c, func(ctx context.Context) (server.QueryResponse, error) {
		return c.tr.Query(ctx, b, o.timeout)
	})
}

// ScanIntervals answers a raw curve-interval scan — the query form the
// cluster router uses, sending each node only the intervals clipped to the
// curve ranges it holds. Intervals must be non-empty, in-range, sorted,
// and disjoint or the server rejects the request. Retry semantics are
// identical to QueryBox's.
func (c *Client) ScanIntervals(ctx context.Context, ivs []query.Interval, opts ...CallOption) (server.QueryResponse, error) {
	o := applyCallOpts(opts)
	return doRetry(ctx, c, func(ctx context.Context) (server.QueryResponse, error) {
		return c.tr.Scan(ctx, ivs, o.timeout)
	})
}

// ScanStream opens a streaming scan: record batches arrive in curve order
// while the server is still scanning, and the dark-interval/pages-read
// summary arrives in the trailer. Only the stream open is retried — once
// the server has accepted the request, a mid-stream failure surfaces from
// Stream.Next. Over the JSON transport the stream is a buffered shim; over
// the binary transport it is genuinely incremental.
func (c *Client) ScanStream(ctx context.Context, ivs []query.Interval, opts ...CallOption) (*Stream, error) {
	o := applyCallOpts(opts)
	return doRetry(ctx, c, func(ctx context.Context) (*Stream, error) {
		return c.tr.ScanStream(ctx, ivs, o.timeout)
	})
}

// QueryBoxStream opens a streaming box query: the decomposition happens
// server-side and record batches arrive in curve order while the scan is
// still running. Retry semantics match ScanStream's: only the open is
// retried.
func (c *Client) QueryBoxStream(ctx context.Context, b query.Box, opts ...CallOption) (*Stream, error) {
	o := applyCallOpts(opts)
	return doRetry(ctx, c, func(ctx context.Context) (*Stream, error) {
		return c.tr.QueryStream(ctx, b, o.timeout)
	})
}

// doRetry runs one logical query through the bounded retry loop: attempts
// are issued until one succeeds, fails terminally (anything that is not a
// *RetryableError), or the policy's budget is spent. The server's
// Retry-After hint, when present, overrides the computed backoff — zero
// means retry immediately.
func doRetry[T any](ctx context.Context, c *Client, op func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	q := uint64(c.queries.Add(1))
	var lastErr error
	var delay time.Duration
	for attempt := 1; attempt <= c.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if err := c.sleep(ctx, delay); err != nil {
				return zero, fmt.Errorf("client: giving up while backing off: %w (last failure: %w)", err, lastErr)
			}
		}
		c.attempts.Add(1)
		out, err := op(ctx)
		if err == nil {
			return out, nil
		}
		if errors.Is(err, ErrOverloaded) {
			c.shed.Add(1)
		}
		var re *RetryableError
		if !errors.As(err, &re) {
			return zero, err
		}
		lastErr = re.Err
		if re.RetryAfter >= 0 {
			delay = re.RetryAfter
		} else {
			delay = c.retry.backoff(q, attempt)
		}
	}
	return zero, fmt.Errorf("client: %d attempts exhausted: %w", c.retry.MaxAttempts, lastErr)
}

// Readyz reports whether the daemon is ready for traffic.
func (c *Client) Readyz(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return false, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK, nil
}

// WireAddr asks the daemon for its advertised binary-protocol listener
// (GET /wireinfo). It returns "" without error when the daemon does not
// serve the binary protocol — the caller falls back to JSON. WireInfo
// (write.go) returns the full advertisement, write capability included.
func (c *Client) WireAddr(ctx context.Context) (string, error) {
	info, found, err := c.WireInfo(ctx)
	if err != nil || !found {
		return "", err
	}
	return info.Addr, nil
}

// MetricsJSON fetches the daemon's /metrics document in JSON form.
func (c *Client) MetricsJSON(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics?format=json", nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: /metrics returned %d", resp.StatusCode)
	}
	return string(body), nil
}

// sleepCtx sleeps for d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
