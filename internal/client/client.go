// Package client is the Go client for the sfcserved query daemon
// (internal/server). It speaks either of the daemon's two protocols behind
// one API: the HTTP/JSON endpoints (JSONTransport, the default) or the
// binary wire protocol with streaming scans (BinaryTransport,
// internal/wire), selected with WithTransport. The Client folds the
// serving-side backpressure signals into a bounded retry loop either way.
//
// The package has the server pipeline's shape: one attempt → one outcome →
// one loop. A Transport performs single attempts; each door has one
// function that sends a request (JSONTransport.do, BinaryTransport.open)
// and reduces a failed attempt to a failure class. One table (outcomes,
// the mirror of server.failures) says what each class means for a read, a
// put and an idempotent write — retryable, terminal or maybe-applied — and
// one loop (run) repeats what is retryable for every operation.
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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

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
	Queries  int64 // operations through the retry loop: reads, stream opens, writes, digests
	Attempts int64 // requests issued across all transports
	Retries  int64 // attempts beyond the first
	Shed     int64 // overload answers observed (retried or not)
}

// Client queries one sfcserved daemon. Methods are safe for concurrent use.
type Client struct {
	hc    *http.Client
	retry RetryPolicy
	tr    Transport
	// side is the HTTP door for what the wire protocol has no frame for
	// (digest, wireinfo, readyz, metrics): the JSON transport itself when
	// that is the transport, otherwise one built from base and hc.
	side *JSONTransport

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
// http.DefaultClient) used by the default JSON transport and, beside a
// binary transport, the HTTP side channels (Digest, Readyz, MetricsJSON,
// WireAddr).
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

// CallOption configures one call.
type CallOption func(*callOpts)

type callOpts struct {
	timeout time.Duration
}

// WithTimeout asks the server to bound this request's service time; the
// server still clamps it to its own -max-timeout. Zero (the default) takes
// the server's default deadline. The caller's ctx bounds the whole retry
// loop client-side regardless, and each attempt asks the server for no
// more than ctx's remaining budget.
func WithTimeout(d time.Duration) CallOption { return func(o *callOpts) { o.timeout = d } }

// New builds a client for the daemon at base (e.g.
// "http://127.0.0.1:7171").
func New(base string, opts ...Option) *Client {
	c := &Client{
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
		c.tr = &JSONTransport{Base: base, HTTPClient: c.hc}
	}
	var ok bool
	if c.side, ok = c.tr.(*JSONTransport); !ok {
		c.side = &JSONTransport{Base: base, HTTPClient: c.hc}
	}
	return c
}

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
// deadline. Retryable failures — transport errors before a complete
// answer, shed, draining — are retried within the policy's budget,
// honoring a Retry-After hint over the computed backoff. One attempt is
// open + drain, so an answer torn before its trailer is retried whole; a
// 200 whose body was partially consumed fails immediately.
func (c *Client) QueryBox(ctx context.Context, b query.Box, opts ...CallOption) (server.QueryResponse, error) {
	return run(ctx, c, opts, func(timeout time.Duration) (server.QueryResponse, error) {
		return collect(c.tr.QueryStream(ctx, b, timeout))
	})
}

// ScanIntervals answers a raw curve-interval scan — the query form the
// cluster router uses, sending each node only the intervals clipped to the
// curve ranges it holds. Intervals must be non-empty, in-range, sorted,
// and disjoint or the server rejects the request. Retry semantics are
// identical to QueryBox's.
func (c *Client) ScanIntervals(ctx context.Context, ivs []query.Interval, opts ...CallOption) (server.QueryResponse, error) {
	return run(ctx, c, opts, func(timeout time.Duration) (server.QueryResponse, error) {
		return collect(c.tr.ScanStream(ctx, ivs, timeout))
	})
}

// collect drains the stream one attempt opened into the buffered answer.
func collect(st *Stream, err error) (server.QueryResponse, error) {
	if err != nil {
		return server.QueryResponse{}, err
	}
	defer st.Close()
	return st.Collect()
}

// ScanStream opens a streaming scan: record batches arrive in curve order
// while the server is still scanning, and the dark-interval/pages-read
// summary arrives in the trailer. Only the stream open is retried — once
// the server has accepted the request, a mid-stream failure surfaces from
// Stream.Next. Over the JSON transport the whole answer is fetched by the
// open; over the binary transport the stream is genuinely incremental.
func (c *Client) ScanStream(ctx context.Context, ivs []query.Interval, opts ...CallOption) (*Stream, error) {
	return run(ctx, c, opts, func(timeout time.Duration) (*Stream, error) {
		return c.tr.ScanStream(ctx, ivs, timeout)
	})
}

// QueryBoxStream opens a streaming box query: the decomposition happens
// server-side and record batches arrive in curve order while the scan is
// still running. Retry semantics match ScanStream's: only the open is
// retried.
func (c *Client) QueryBoxStream(ctx context.Context, b query.Box, opts ...CallOption) (*Stream, error) {
	return run(ctx, c, opts, func(timeout time.Duration) (*Stream, error) {
		return c.tr.QueryStream(ctx, b, timeout)
	})
}

// Put durably inserts rec through the daemon, acknowledged only after the
// owning shard's WAL has synced it. Retry semantics are deliberately
// asymmetric to reads: attempts the server refused before touching state
// (shed, draining) are retried within the policy's budget, but an attempt
// that may have been applied — connection death after the request left,
// server-side deadline — fails immediately with a *MaybeAppliedError,
// because a repeated put is a duplicate record. Callers that can tolerate
// duplicates may errors.As for MaybeAppliedError and re-issue themselves.
func (c *Client) Put(ctx context.Context, rec store.Record, opts ...CallOption) (server.WriteResponse, error) {
	return c.write(ctx, OpPut, rec, opts)
}

// Delete durably removes every stored instance equal to rec. Deletion is
// idempotent — removing an absent record is a no-op — so unlike Put, an
// attempt that may have been applied is retried within the policy's budget.
func (c *Client) Delete(ctx context.Context, rec store.Record, opts ...CallOption) (server.WriteResponse, error) {
	return c.write(ctx, OpDelete, rec, opts)
}

// Flush persists every shard's memtable into an on-disk run. Flushing is
// idempotent and retried like Delete.
func (c *Client) Flush(ctx context.Context, opts ...CallOption) (server.WriteResponse, error) {
	return c.write(ctx, OpFlush, store.Record{}, opts)
}

func (c *Client) write(ctx context.Context, op WriteOp, rec store.Record, opts []CallOption) (server.WriteResponse, error) {
	return run(ctx, c, opts, func(timeout time.Duration) (server.WriteResponse, error) {
		return c.tr.Write(ctx, op, rec, timeout)
	})
}

// Digest fetches the daemon's anti-entropy summary over the given curve
// intervals (GET /digest): an order-independent record count + checksum
// that two replicas of a range can compare without shipping the records.
// Digests are reads, so retry semantics match QueryBox's. The wire
// protocol has no digest frame: the request rides the HTTP door whatever
// the transport.
func (c *Client) Digest(ctx context.Context, ivs []query.Interval, opts ...CallOption) (service.RangeDigest, error) {
	q := url.Values{"ivs": {wiretext.FormatIntervals(ivs)}}
	return run(ctx, c, opts, func(timeout time.Duration) (service.RangeDigest, error) {
		out, err := doJSON[server.DigestResponse](ctx, c.side, kindRead, http.MethodGet, "/digest", q, timeout, nil)
		if err != nil {
			return service.RangeDigest{}, err
		}
		d, err := out.Digest()
		if err != nil {
			return service.RangeDigest{}, fmt.Errorf("client: %w", err)
		}
		return d, nil
	})
}

// run is the one retry loop: attempts of one logical operation are issued
// until one succeeds, fails with anything that is not a *RetryableError,
// or the policy's budget is spent. Which failures come back retryable is
// the outcome table's business (resolve), not the loop's. The server's
// Retry-After hint, when present, overrides the computed backoff — zero
// means retry immediately. Each attempt is handed the server-side deadline
// to request: the call's WithTimeout clamped by ctx's remaining budget, so
// the server never works past the moment the caller stops listening.
func run[T any](ctx context.Context, c *Client, opts []CallOption, attempt func(timeout time.Duration) (T, error)) (T, error) {
	var zero T
	var o callOpts
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	q := uint64(c.queries.Add(1))
	var lastErr error
	var delay time.Duration
	for n := 1; n <= c.retry.MaxAttempts; n++ {
		if n > 1 {
			c.retries.Add(1)
			if err := c.sleep(ctx, delay); err != nil {
				return zero, fmt.Errorf("client: giving up while backing off: %w (last failure: %w)", err, lastErr)
			}
		}
		timeout, err := effectiveTimeout(ctx, o.timeout)
		if err != nil {
			return zero, err
		}
		c.attempts.Add(1)
		out, err := attempt(timeout)
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
			delay = c.retry.backoff(q, n)
		}
	}
	return zero, fmt.Errorf("client: %d attempts exhausted: %w", c.retry.MaxAttempts, lastErr)
}

// effectiveTimeout resolves the server-side deadline one attempt requests:
// the call option's timeout, clamped by the context's remaining budget. A
// context that has already ended fails here, before anything is sent.
func effectiveTimeout(ctx context.Context, opt time.Duration) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return 0, fmt.Errorf("client: %w", context.DeadlineExceeded)
		}
		if opt == 0 || rem < opt {
			opt = rem
		}
	}
	return opt, nil
}

// Readyz reports whether the daemon is ready for traffic: any complete
// answer other than 200 (a draining daemon says 503) is "not ready", not
// an error.
func (c *Client) Readyz(ctx context.Context) (bool, error) {
	status, _, err := c.side.do(ctx, http.MethodGet, "/readyz", nil, 0, nil)
	if status == 0 {
		return false, resolve(kindRead, err)
	}
	return status == http.StatusOK, nil
}

// WireInfo asks the daemon for its full binary-protocol advertisement
// (GET /wireinfo). found is false — with no error — when the daemon does
// not serve the binary protocol at all; callers then stay on JSON for
// everything. A daemon may advertise an address without the write
// capability: writes are then answered read-only on either door.
func (c *Client) WireInfo(ctx context.Context) (info server.WireInfo, found bool, err error) {
	status, body, err := c.side.do(ctx, http.MethodGet, "/wireinfo", nil, 0, nil)
	if status == http.StatusNotFound {
		return server.WireInfo{}, false, nil
	}
	if err != nil {
		return server.WireInfo{}, false, resolve(kindRead, err)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return server.WireInfo{}, false, fmt.Errorf("client: decoding /wireinfo: %w", err)
	}
	return info, true, nil
}

// WireAddr asks the daemon for its advertised binary-protocol listener
// (GET /wireinfo). It returns "" without error when the daemon does not
// serve the binary protocol — the caller falls back to JSON.
func (c *Client) WireAddr(ctx context.Context) (string, error) {
	info, _, err := c.WireInfo(ctx)
	return info.Addr, err
}

// MetricsJSON fetches the daemon's /metrics document in JSON form.
func (c *Client) MetricsJSON(ctx context.Context) (string, error) {
	_, body, err := c.side.do(ctx, http.MethodGet, "/metrics", url.Values{"format": {"json"}}, 0, nil)
	return string(body), resolve(kindRead, err)
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
