package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/query"
	"repro/internal/server"
)

// TestHedgeLoserChargesNoRetry is the retry-accounting regression over the
// hedger in use — Router.race over ClientNodes. The preferred member is
// seeded slow: it holds its answer until long after the hedge has fired and
// the replica has won. The canceled loss must cost the slow member's client
// exactly one attempt and no retry — its budget belongs to its own
// failures, not to races somebody else won — and must not mark it dead.
func TestHedgeLoserChargesNoRetry(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.QueryResponse{
			Records:  []server.WireRecord{{Point: []uint32{0, 0}, Payload: 7}},
			Complete: true,
		})
	}))
	defer fast.Close()

	topo, err := NewTopology(testCurve(t, 3), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	policy := client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	slowCl, fastCl := client.New(slow.URL, policy), client.New(fast.URL, policy)
	rt, err := NewRouter(topo, []Node{NewClientNode(slowCl), NewClientNode(fastCl)}, WithHedgeDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// Segment 0 only: node 0 (slow) is its preferred replica, node 1 the
	// hedge.
	lo, hi := topo.Segment(0)
	res, err := rt.Scan(context.Background(), []query.Interval{{Lo: lo, Hi: hi}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || !res.Complete() || res.Hedges != 1 {
		t.Fatalf("hedged scan: %d records, dark %v, %d hedges; want the replica's one record after one hedge", len(res.Records), res.Unavailable, res.Hedges)
	}
	if s := slowCl.Stats(); s.Attempts != 1 || s.Retries != 0 {
		t.Fatalf("slow member's client: %d attempts, %d retries; want 1 and 0 — a canceled hedge loss is not a retry", s.Attempts, s.Retries)
	}
	if s := fastCl.Stats(); s.Attempts != 1 || s.Retries != 0 {
		t.Fatalf("winning member's client: %d attempts, %d retries; want 1 and 0", s.Attempts, s.Retries)
	}
	if !rt.Alive(0) {
		t.Fatal("slow but healthy member was marked dead")
	}
}
