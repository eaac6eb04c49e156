package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
)

func testConfig() config {
	return config{
		addr:      "127.0.0.1:0",
		curveName: "hilbert",
		d:         2,
		k:         5,
		records:   2000,
		shards:    2,
		seed:      7,
		queueWait: server.DefaultQueueWait,

		maxTimeout:   server.DefaultMaxTimeout,
		drainTimeout: 10 * time.Second,
	}
}

// TestRunServesAndDrainsCleanly is the daemon lifecycle end to end: run
// binds :0 on both doors, answers one box through the JSON door and through
// the binary door (-wire-addr, found via /wireinfo) with the same records
// in the same order, and returns nil — the process's exit-0 path — once the
// signal context is canceled.
func TestRunServesAndDrainsCleanly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	cfg := testConfig()
	cfg.wireAddr = "127.0.0.1:0"
	go func() {
		done <- run(ctx, cfg, func(a string) { addrc <- a }, &out)
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	cl := client.New("http://" + addr)
	if ok, err := cl.Readyz(context.Background()); err != nil || !ok {
		t.Fatalf("readyz: ok=%v err=%v", ok, err)
	}
	u := grid.MustNew(2, 5)
	b, err := query.NewBox(u, u.MustPoint(0, 0), u.MustPoint(31, 31))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.QueryBox(context.Background(), b, client.WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 2000 || !resp.Complete {
		t.Fatalf("full-universe box returned %d records (complete=%v), want all 2000",
			len(resp.Records), resp.Complete)
	}

	wireAddr, err := cl.WireAddr(context.Background())
	if err != nil || wireAddr == "" {
		t.Fatalf("daemon does not advertise its binary door: %q, %v", wireAddr, err)
	}
	binCl := client.New("http://"+addr, client.WithTransport(&client.BinaryTransport{Addr: wireAddr}))
	defer binCl.Close()
	binResp, err := binCl.QueryBox(context.Background(), b, client.WithTimeout(time.Minute))
	if err != nil {
		t.Fatalf("binary door: %v", err)
	}
	if !binResp.Complete || !reflect.DeepEqual(binResp.Records, resp.Records) {
		t.Fatalf("binary door returned %d records (complete=%v), want the JSON door's %d record for record",
			len(binResp.Records), binResp.Complete, len(resp.Records))
	}

	cancel() // the SIGTERM path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("output missing drain confirmation:\n%s", out.String())
	}
}

// TestRunRejectsBadConfig: configuration errors surface before the
// listener binds.
func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.curveName = "nonesuch"
	if err := run(context.Background(), cfg, nil, io.Discard); err == nil {
		t.Fatal("unknown curve accepted")
	}
	cfg = testConfig()
	cfg.shards = -3
	if err := run(context.Background(), cfg, nil, io.Discard); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestRunDurableModeSurvivesRestart: with -data the daemon seeds the
// directory on first start, acknowledges writes over the wire, and a second
// start over the same directory serves the recovered set instead of
// reseeding.
func TestRunDurableModeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.data = dir

	start := func() (string, context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		addrc := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(ctx, cfg, func(a string) { addrc <- a }, io.Discard) }()
		select {
		case addr := <-addrc:
			return addr, cancel, done
		case err := <-done:
			t.Fatalf("run exited before ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
		panic("unreachable")
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}

	addr, cancel, done := start()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"point":[%d,0],"payload":%d}`, i, 90_000+i)
		resp, err := http.Post("http://"+addr+"/put", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: status %d", i, resp.StatusCode)
		}
	}
	stop(cancel, done)

	addr, cancel, done = start()
	defer stop(cancel, done)
	cl := client.New("http://" + addr)
	u := grid.MustNew(2, 5)
	b, err := query.NewBox(u, u.MustPoint(0, 0), u.MustPoint(31, 31))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.QueryBox(context.Background(), b, client.WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != 2005 {
		t.Fatalf("restarted durable daemon serves %d records, want 2000 seeded + 5 put", len(resp.Records))
	}
}
