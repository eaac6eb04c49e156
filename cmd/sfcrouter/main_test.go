package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	testRecords = 3000
	testSeed    = 7
)

func testConfig(nodes []string) config {
	return config{
		addr:      "127.0.0.1:0",
		wireAddr:  "127.0.0.1:0",
		nodes:     strings.Join(nodes, ","),
		replicas:  2,
		curveName: "hilbert",
		d:         2,
		k:         5,
		seed:      testSeed,

		nodeTimeout:   2 * time.Second,
		hedgeDelay:    50 * time.Millisecond,
		probeInterval: time.Second,
		maxTimeout:    server.DefaultMaxTimeout,
		drainTimeout:  10 * time.Second,
		writeQuorum:   2,
	}
}

// startMembers brings up n durable members in-process, each holding its
// share of the synthetic record set exactly as sfcserved -cluster-node
// does and serving both doors, and returns their base URLs and the full set.
func startMembers(t *testing.T, c curve.Curve, n int) ([]string, []store.Record) {
	t.Helper()
	topo, err := cluster.NewTopology(c, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := chaos.SyntheticRecords(c.Universe(), testSeed, testRecords)
	urls := make([]string, n)
	for i := range urls {
		var held []store.Record
		for _, r := range all {
			if topo.HoldsKey(i, c.Index(r.Point)) {
				held = append(held, r)
			}
		}
		svc, err := service.New(c, held, service.WithShards(2), service.WithDurableDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(svc)
		if err != nil {
			t.Fatal(err)
		}
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.AdvertiseWire(wl.Addr().String())
		go srv.ServeWire(wl)
		go srv.Serve(hl)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Drain(ctx)
		})
		urls[i] = "http://" + hl.Addr().String()
	}
	return urls, all
}

// payloadsIn returns the sorted payloads of the records inside b.
func payloadsIn(recs []store.Record, b query.Box) []uint64 {
	var out []uint64
	for _, r := range recs {
		if b.Contains(r.Point) {
			out = append(out, r.Payload)
		}
	}
	slices.Sort(out)
	return out
}

func payloadsOf(resp server.QueryResponse) []uint64 {
	out := make([]uint64, len(resp.Records))
	for i, r := range resp.Records {
		out[i] = r.Payload
	}
	slices.Sort(out)
	return out
}

// TestRunRoutesBothDoorsAndDrainsCleanly is the router daemon's lifecycle
// end to end: run binds :0 over three members, answers one box record-exact
// through the JSON door and through the binary door (-wire-addr, found via
// /wireinfo), routes a put at W=2 that is readable afterwards, reports a
// conserved /topology, and returns nil once the signal context is canceled.
func TestRunRoutesBothDoorsAndDrainsCleanly(t *testing.T) {
	u := grid.MustNew(2, 5)
	c, err := curve.ByName("hilbert", u, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	members, all := startMembers(t, c, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, testConfig(members), func(a string) { addrc <- a }, &out)
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	if !strings.Contains(out.String(), "binary:") || strings.Contains(out.String(), "json") {
		t.Fatalf("members advertise wire listeners; banner should show every leg upgraded:\n%s", out.String())
	}

	jsonCl := client.New(base)
	if ok, err := jsonCl.Readyz(ctx); err != nil || !ok {
		t.Fatalf("readyz: ok=%v err=%v", ok, err)
	}
	wireAddr, err := jsonCl.WireAddr(ctx)
	if err != nil || wireAddr == "" {
		t.Fatalf("router does not advertise its binary door: %q, %v", wireAddr, err)
	}
	binCl := client.New(base, client.WithTransport(&client.BinaryTransport{Addr: wireAddr}))
	defer binCl.Close()

	b, err := query.NewBox(u, u.MustPoint(3, 5), u.MustPoint(28, 22)) // spans all three segments
	if err != nil {
		t.Fatal(err)
	}
	want := payloadsIn(all, b)
	for name, cl := range map[string]*client.Client{"json": jsonCl, "binary": binCl} {
		resp, err := cl.QueryBox(ctx, b, client.WithTimeout(time.Minute))
		if err != nil {
			t.Fatalf("%s door: %v", name, err)
		}
		if !resp.Complete || !slices.Equal(payloadsOf(resp), want) {
			t.Fatalf("%s door: %d records (complete=%v), want exactly the %d in the box", name, len(resp.Records), resp.Complete, len(want))
		}
	}

	rec := store.Record{Point: u.MustPoint(10, 10), Payload: 1 << 40}
	ack, err := binCl.Put(ctx, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK || ack.Acked < 2 || ack.Required != 2 {
		t.Fatalf("routed put ack %+v, want at least 2 of 2 required", ack)
	}
	resp, err := jsonCl.QueryBox(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloadsOf(resp); !slices.Contains(got, rec.Payload) || len(got) != len(want)+1 {
		t.Fatalf("after the put the box holds %d records, want the original %d plus the new one", len(got), len(want))
	}

	var topo struct {
		Nodes     []cluster.NodeStatus `json:"nodes"`
		Conserved bool                 `json:"conserved"`
	}
	hr, err := http.Get(base + "/topology")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !topo.Conserved || len(topo.Nodes) != 3 {
		t.Fatalf("/topology: conserved=%v over %d nodes, want true over 3", topo.Conserved, len(topo.Nodes))
	}

	cancel() // the SIGTERM path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not drain")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("output missing drain confirmation:\n%s", out.String())
	}
}

// TestRunRejectsBadConfig: configuration errors surface before the listener
// binds.
func TestRunRejectsBadConfig(t *testing.T) {
	for name, mut := range map[string]func(*config){
		"no members":    func(c *config) { c.nodes = " , " },
		"unknown curve": func(c *config) { c.curveName = "nonesuch" },
		"R > N":         func(c *config) { c.replicas = 3 },
		"W > R":         func(c *config) { c.writeQuorum = 3 },
	} {
		cfg := testConfig([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"})
		mut(&cfg)
		if err := run(context.Background(), cfg, nil, io.Discard); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
