package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/curve"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
)

// Backend presents the router as a server.Backend, so the router daemon is
// the same server.Server as a member daemon — one pipeline, both doors —
// executing against the whole cluster instead of one node's shards.
func (rt *Router) Backend() server.Backend { return routerBackend{rt} }

// routerBackend adapts the Router's result shapes to the service's and its
// refusals to the server's failure sentinels; Metrics is the Router's own.
type routerBackend struct{ *Router }

func (b routerBackend) Curve() curve.Curve { return b.topo.Curve() }

// RangeStream decomposes the box once on the router, then scatters.
func (b routerBackend) RangeStream(ctx context.Context, box query.Box) (server.Stream, error) {
	return b.ScanStream(ctx, query.DecomposeBox(b.topo.Curve(), box))
}

func (b routerBackend) ScanStream(ctx context.Context, ivs []query.Interval) (server.Stream, error) {
	st, err := b.Router.ScanStream(ctx, ivs)
	if err != nil {
		return nil, err
	}
	return backendStream{st}, nil
}

// backendStream reports the routed trailer in the daemon's shape:
// NodesQueried rides in ShardsQueried.
type backendStream struct{ *Stream }

func (s backendStream) Trailer() service.Result {
	tr := s.Stream.Trailer()
	return service.Result{Unavailable: tr.Unavailable, ShardsQueried: tr.NodesQueried, PagesRead: tr.PagesRead}
}

// Digest folds a routed scan of ivs segment by segment; a range with dark
// intervals has no digest worth comparing.
func (b routerBackend) Digest(ctx context.Context, ivs []query.Interval) (service.RangeDigest, error) {
	st, err := b.Router.ScanStream(ctx, ivs)
	if err != nil {
		return service.RangeDigest{}, err
	}
	defer st.Close()
	var d service.RangeDigest
	if err := d.FoldStream(b.topo.Curve(), st.Next); err != nil {
		return service.RangeDigest{}, err
	}
	if tr := st.Trailer(); !tr.Complete() {
		return service.RangeDigest{}, fmt.Errorf("%w: cluster: digest: %d dark intervals", server.ErrUnavailable, len(tr.Unavailable))
	}
	return d, nil
}

func (b routerBackend) Put(ctx context.Context, r store.Record) (server.WriteResponse, error) {
	return writeAck(b.Router.Put(ctx, r))
}

func (b routerBackend) Delete(ctx context.Context, r store.Record) (server.WriteResponse, error) {
	return writeAck(b.Router.Delete(ctx, r))
}

func (b routerBackend) Flush(ctx context.Context) error {
	return writeErr(b.Router.Flush(ctx))
}

func writeAck(res WriteResult, err error) (server.WriteResponse, error) {
	return server.WriteResponse{OK: err == nil, Acked: res.Acked, Required: res.Required, Missed: res.Missed}, writeErr(err)
}

// writeErr puts the router's write refusals in the server's failure
// classes: a read-only router is read-only, an unreachable quorum is
// retryable — replicas may revive.
func writeErr(err error) error {
	switch {
	case errors.Is(err, ErrRouterReadOnly):
		return fmt.Errorf("%w: %w", server.ErrReadOnly, err)
	case errors.Is(err, ErrWriteQuorum):
		return fmt.Errorf("%w: %w", server.ErrUnavailable, err)
	}
	return err
}

func (b routerBackend) Writable() bool { return b.writeQuorum >= 1 }

// Close is a no-op: the router holds no resources beyond its node handles,
// which their owner closes.
func (b routerBackend) Close() error { return nil }
