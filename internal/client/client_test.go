package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
)

func testBox(t *testing.T) query.Box {
	t.Helper()
	u := grid.MustNew(2, 4)
	b, err := query.NewBox(u, u.MustPoint(1, 2), u.MustPoint(5, 9))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordedSleeps swaps the client's backoff sleep for a recorder so tests
// assert the requested delays without waiting them out.
func recordedSleeps(c *Client) *[]time.Duration {
	var sleeps []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return ctx.Err()
	}
	return &sleeps
}

func okBody(t *testing.T, w http.ResponseWriter) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(server.QueryResponse{
		Records:       []server.WireRecord{{Point: []uint32{1, 2}, Payload: 7}},
		ShardsQueried: 1,
		Complete:      true,
	}); err != nil {
		t.Error(err)
	}
}

// TestRetryThenSuccess: 429s and a 503 with Retry-After: 0 are retried
// until the budget admits the request; the response decodes and the stats
// count every attempt.
func TestRetryThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "overloaded"})
		case 2:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "draining"})
		default:
			okBody(t, w)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	sleeps := recordedSleeps(c)
	resp, err := c.QueryBox(context.Background(), testBox(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 1 || resp.Records[0].Payload != 7 {
		t.Fatalf("response: %+v", resp)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Shed != 1 || st.Queries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(*sleeps) != 2 || (*sleeps)[0] != 0 || (*sleeps)[1] != 0 {
		t.Fatalf("Retry-After: 0 should give zero backoff, got %v", *sleeps)
	}
}

// TestNoRetryAfterPartialBody: a 200 whose body is cut short must not be
// retried — the server sees exactly one request and the error says so.
func TestNoRetryAfterPartialBody(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"records":[{"point":[1,2]`))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	recordedSleeps(c)
	_, err := c.QueryBox(context.Background(), testBox(t))
	if err == nil {
		t.Fatal("truncated body accepted")
	}
	if !strings.Contains(err.Error(), "not retried") {
		t.Fatalf("error does not mark the no-retry decision: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls after a partial body, want exactly 1", calls.Load())
	}
}

// TestQueryTimeoutParameter: a timeout is forwarded to the server as its
// per-request deadline parameter.
func TestQueryTimeoutParameter(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query().Get("timeout")
		okBody(t, w)
	}))
	defer ts.Close()
	c := New(ts.URL)
	if _, err := c.QueryBox(context.Background(), testBox(t), WithTimeout(250*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got != "250ms" {
		t.Fatalf("timeout parameter %q, want \"250ms\"", got)
	}
}

// TestContextStopsRetryLoop: the caller's context ends the retry loop
// during backoff with the context error, not after burning the budget.
func TestContextStopsRetryLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := New(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the caller gives up mid-backoff
		return ctx.Err()
	}
	_, err := c.QueryBox(ctx, testBox(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (no request after cancellation)", st.Attempts)
	}
}
