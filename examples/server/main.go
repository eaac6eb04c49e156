// Serving the sharded query service over a socket: the server wraps
// internal/service behind HTTP/JSON with admission control (a bounded
// inflight semaphore plus a queue-wait budget that sheds excess load with
// 429 + Retry-After), per-request deadlines, and a graceful drain. The
// client folds those backpressure signals into a bounded retry loop.
//
// This example runs the whole stack in one process: bulkload a service,
// bind a loopback listener, query it through internal/client, print the
// server-side metrics, then drain.
//
// Run with: go run ./examples/server
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	u, err := grid.New(2, 7) // 128×128 key space
	if err != nil {
		log.Fatal(err)
	}
	c := curve.NewHilbert(u)

	rng := rand.New(rand.NewSource(7))
	recs := make([]store.Record, 30_000)
	for i := range recs {
		recs[i] = store.Record{
			Point:   u.MustPoint(rng.Uint32()%u.Side(), rng.Uint32()%u.Side()),
			Payload: uint64(i),
		}
	}

	svc, err := service.New(c, recs, service.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(svc,
		server.WithMaxInflight(8),
		server.WithQueueWait(50*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	base := "http://" + l.Addr().String()
	fmt.Printf("daemon on %s: curve=%s universe=%v shards=%d records=%d\n\n",
		base, c.Name(), u, svc.Shards(), len(recs))

	ctx := context.Background()
	cl := client.New(base)
	for _, corners := range [][4]uint32{
		{10, 10, 40, 40},
		{60, 60, 90, 90},
		{0, 0, 127, 127},
	} {
		b, err := query.NewBox(u,
			u.MustPoint(corners[0], corners[1]), u.MustPoint(corners[2], corners[3]))
		if err != nil {
			log.Fatal(err)
		}
		// WithTimeout is the per-request deadline the server propagates
		// into its scan; the client retries 429/503 with backoff.
		resp, err := cl.QueryBox(ctx, b, client.WithTimeout(5*time.Second))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("box %v..%v: %d records from %d shards in %dus (complete=%v)\n",
			b.Lo, b.Hi, len(resp.Records), resp.ShardsQueried, resp.ElapsedUS, resp.Complete)
	}

	mj, err := cl.MetricsJSON(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/metrics?format=json (%d bytes, globally sorted keys)\n", len(mj))

	// Graceful drain: stop accepting, finish inflight, close the service.
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Fatal(err)
	}
	st := cl.Stats()
	fmt.Printf("drained cleanly; client stats: queries=%d attempts=%d retries=%d shed=%d\n",
		st.Queries, st.Attempts, st.Retries, st.Shed)
}
