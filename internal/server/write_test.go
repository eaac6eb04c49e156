package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wal"
)

// newDurableServer builds a server over an initially empty durable service
// in dir: 2 shards over 16×16 cells.
func newDurableServer(t *testing.T, dir string) (*server.Server, *service.Service) {
	t.Helper()
	u := grid.MustNew(2, 4)
	c := curve.NewHilbert(u)
	svc, err := service.New(c, nil, service.WithShards(2), service.WithDurableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	return srv, svc
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWriteEndpoints drives the HTTP write path end to end: records put
// over the wire are served by /query, /delete removes them, /flush
// persists the memtables, and the durability counters appear on /metrics.
func TestWriteEndpoints(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newDurableServer(t, dir)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"point":[%d,%d],"payload":%d}`, i%16, i/16, i)
		resp := postJSON(t, ts.URL+"/put", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: status %d", i, resp.StatusCode)
		}
		var ack server.WriteResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || !ack.OK {
			t.Fatalf("put %d: bad ack (%v, %+v)", i, err, ack)
		}
		resp.Body.Close()
	}
	if resp := postJSON(t, ts.URL+"/delete", `{"point":[3,0],"payload":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := postJSON(t, ts.URL+"/flush", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/query?lo=0,0&hi=15,15")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 19 {
		t.Fatalf("query after 20 puts and 1 delete served %d records, want 19", len(qr.Records))
	}
	for _, r := range qr.Records {
		if r.Payload == 3 {
			t.Fatal("deleted record still served")
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, name := range []string{"wal.appends", "durable.flushes", "writes.total"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("/metrics missing durability series %q", name)
		}
	}
}

// TestWriteEndpointsSurviveRestart: acked writes are served after the
// daemon's service is closed and a fresh one is opened over the directory.
func TestWriteEndpointsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv, svc := newDurableServer(t, dir)
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < 12; i++ {
		resp := postJSON(t, ts.URL+"/put", fmt.Sprintf(`{"point":[%d,1],"payload":%d}`, i, 100+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	ts.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newDurableServer(t, dir)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/query?lo=0,0&hi=15,15")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 12 {
		t.Fatalf("restarted daemon serves %d records, want the 12 acked puts", len(qr.Records))
	}
}

// TestWriteEndpointErrors pins the status-code contract of the write path.
func TestWriteEndpointErrors(t *testing.T) {
	// Read-only daemon: all three endpoints answer 403.
	ro := newTestService(t, 0)
	roSrv, err := server.New(ro)
	if err != nil {
		t.Fatal(err)
	}
	roTS := httptest.NewServer(roSrv.Handler())
	defer roTS.Close()
	for _, ep := range []string{"/put", "/delete", "/flush"} {
		body := `{"point":[1,1],"payload":1}`
		resp := postJSON(t, roTS.URL+ep, body)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s on read-only daemon: status %d, want 403", ep, resp.StatusCode)
		}
		resp.Body.Close()
	}

	srv, _ := newDurableServer(t, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"get-put", func() *http.Response {
			resp, err := http.Get(ts.URL + "/put")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusMethodNotAllowed},
		{"bad-json", func() *http.Response {
			return postJSON(t, ts.URL+"/put", `{"point":`)
		}, http.StatusBadRequest},
		{"point-outside-universe", func() *http.Response {
			return postJSON(t, ts.URL+"/put", `{"point":[99,99],"payload":1}`)
		}, http.StatusBadRequest},
		{"wrong-dimension", func() *http.Response {
			return postJSON(t, ts.URL+"/put", `{"point":[1],"payload":1}`)
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		resp.Body.Close()
	}
}

// gatedWAL holds every Sync until the gate opens — a put parked inside it
// occupies its inflight slot for as long as the test wants.
type gatedWAL struct {
	wal.File
	entered chan<- struct{}
	gate    <-chan struct{}
}

func (f gatedWAL) Sync() error {
	f.entered <- struct{}{}
	<-f.gate
	return f.File.Sync()
}

// TestJSONPutShedBeforeWAL: the JSON write endpoints pass the same
// admission control as everything else. With the single inflight slot held
// by a put parked in its WAL sync, a second JSON put is shed with 429 +
// Retry-After before the WAL is touched — the record is absent afterwards —
// and the client reads that as a safe-to-repeat overload, not as a write
// that may have been applied.
func TestJSONPutShedBeforeWAL(t *testing.T) {
	u := grid.MustNew(2, 4)
	entered, gate := make(chan struct{}, 8), make(chan struct{})
	svc, err := service.New(curve.NewHilbert(u), nil, service.WithDurableDir(t.TempDir()),
		service.WithDurableShardOptions(func(int) []store.DurableOption {
			return []store.DurableOption{store.WithWALWrapper(func(f wal.File) wal.File {
				return gatedWAL{File: f, entered: entered, gate: gate}
			})}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv, err := server.New(svc, server.WithMaxInflight(1), server.WithQueueWait(0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	held := make(chan int, 1) // the parked put's status, 0 if it never got one
	go func() {
		resp, err := http.Post(ts.URL+"/put", "application/json", strings.NewReader(`{"point":[1,1],"payload":1}`))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-entered // the first put owns the slot and is inside its WAL sync

	cl := client.New(ts.URL, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	_, err = cl.Put(context.Background(), store.Record{Point: u.MustPoint(2, 2), Payload: 2}, client.WithTimeout(time.Second))
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("put against a saturated daemon: %v, want ErrOverloaded", err)
	}
	var ma *client.MaybeAppliedError
	if errors.As(err, &ma) {
		t.Fatalf("shed put classified maybe-applied: %v", err)
	}
	if got := cl.Stats().Shed; got != 1 {
		t.Fatalf("client counted %d shed answers, want 1", got)
	}
	if got := svc.Metrics().Counter("server.shed").Value(); got != 1 {
		t.Fatalf("server.shed = %d, want 1", got)
	}
	if len(entered) != 0 {
		t.Fatal("the shed put reached the WAL")
	}

	close(gate)
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held put: status %d", status)
	}
	var qr server.QueryResponse
	getJSON(t, ts.URL+"/query?lo=0,0&hi=15,15", &qr)
	if len(qr.Records) != 1 || qr.Records[0].Payload != 1 {
		t.Fatalf("daemon holds %+v, want only the admitted put", qr.Records)
	}
}
