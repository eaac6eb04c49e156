package cluster

import (
	"context"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// ClientNode adapts the client for one sfcserved daemon — over whichever
// transport it was built with — to the router's Node interface: interval
// scans are a streamed TScan (or GET /scan), writes TPut/TDelete/TFlush (or
// POST /put, /delete, /flush), readiness GET /readyz. Each node keeps its
// own client and therefore its own retry budget — a failover or hedge to
// another node never consumes this node's attempts.
type ClientNode struct {
	cl *client.Client
}

// NewClientNode wraps cl as a cluster member handle.
func NewClientNode(cl *client.Client) *ClientNode { return &ClientNode{cl: cl} }

// Scan runs the interval scan against the daemon over the client's
// streaming surface — incremental over the binary transport, one batch
// holding the whole answer over JSON — accumulating batches into the
// store's result shape as they arrive. Batches from the client stream stay valid across Next calls,
// so the records are appended without a per-record copy.
func (n *ClientNode) Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (store.ScanResult, error) {
	st, err := n.cl.ScanStream(ctx, ivs, client.WithTimeout(timeout))
	if err != nil {
		return store.ScanResult{}, err
	}
	defer st.Close()
	var res store.ScanResult
	for {
		batch, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return store.ScanResult{}, err
		}
		res.Records = append(res.Records, batch...)
	}
	tr, _ := st.Trailer()
	res.PagesRead = int(tr.PagesRead)
	if len(tr.Unavailable) > 0 {
		res.Unavailable = append([]query.Interval(nil), tr.Unavailable...)
	}
	return res, nil
}

// Ready probes the daemon's /readyz.
func (n *ClientNode) Ready(ctx context.Context) bool {
	ok, err := n.cl.Readyz(ctx)
	return err == nil && ok
}

// Put durably inserts rec on the daemon. The router owns replication-level
// retry (quorum, anti-entropy), so a maybe-applied failure surfaces as-is
// rather than risking a duplicate record.
func (n *ClientNode) Put(ctx context.Context, rec store.Record, timeout time.Duration) error {
	_, err := n.cl.Put(ctx, rec, client.WithTimeout(timeout))
	return err
}

// Delete durably removes every stored instance equal to rec.
func (n *ClientNode) Delete(ctx context.Context, rec store.Record, timeout time.Duration) error {
	_, err := n.cl.Delete(ctx, rec, client.WithTimeout(timeout))
	return err
}

// Flush persists the daemon's memtables to on-disk runs.
func (n *ClientNode) Flush(ctx context.Context, timeout time.Duration) error {
	_, err := n.cl.Flush(ctx, client.WithTimeout(timeout))
	return err
}

// Digest fetches the daemon's anti-entropy summary over ivs. Digests ride
// the HTTP side channel (GET /digest) on both transports: the wire
// protocol has no digest frame.
func (n *ClientNode) Digest(ctx context.Context, ivs []query.Interval, timeout time.Duration) (service.RangeDigest, error) {
	return n.cl.Digest(ctx, ivs, client.WithTimeout(timeout))
}
