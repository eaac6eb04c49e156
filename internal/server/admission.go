package server

import (
	"context"
	"errors"
	"time"
)

// errShed is returned by acquire when the queue-wait budget elapses with
// every inflight slot still taken: 429 / CodeOverloaded + Retry-After.
var errShed error = classed{failShed, errors.New("overloaded: inflight limit reached within the queue-wait budget")}

// limiter is the daemon's admission controller: a bounded semaphore of
// inflight query slots plus a queue-wait budget. A request that cannot get
// a slot within the budget is shed — the server answers 429 immediately
// instead of stacking unbounded goroutines behind a saturated worker pool,
// so served requests keep bounded latency while excess load bounces with a
// client-visible backpressure signal.
type limiter struct {
	slots     chan struct{}
	queueWait time.Duration
}

// newLimiter builds a limiter admitting up to max concurrent holders, each
// waiting at most queueWait for a slot (queueWait <= 0 sheds immediately
// when saturated).
func newLimiter(max int, queueWait time.Duration) *limiter {
	return &limiter{slots: make(chan struct{}, max), queueWait: queueWait}
}

// acquire takes an inflight slot, waiting up to the queue-wait budget. It
// returns how long the caller queued and, on success, a non-nil slot to
// release. Failure is errShed (budget elapsed) or the context's error (the
// client gave up or timed out while queued).
func (l *limiter) acquire(ctx context.Context) (waited time.Duration, err error) {
	start := time.Now()
	select {
	case l.slots <- struct{}{}:
		return time.Since(start), nil
	default:
	}
	if l.queueWait <= 0 {
		return time.Since(start), errShed
	}
	t := time.NewTimer(l.queueWait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		return time.Since(start), nil
	case <-t.C:
		return time.Since(start), errShed
	case <-ctx.Done():
		return time.Since(start), ctx.Err()
	}
}

// release returns a slot taken by a successful acquire.
func (l *limiter) release() { <-l.slots }

// inflight returns the number of slots currently held.
func (l *limiter) inflight() int { return len(l.slots) }

// capacity returns the inflight bound.
func (l *limiter) capacity() int { return cap(l.slots) }
