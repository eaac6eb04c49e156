package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	wiretext "repro/internal/wire/text"
)

// TestScanEndToEnd: /scan with the whole index space returns exactly what
// /query over the whole universe returns — the interval path and the box
// path serve the same records in the same order.
func TestScanEndToEnd(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	n := svc.Curve().Universe().N()
	var scanResp, queryResp server.QueryResponse
	getJSON(t, ts.URL+"/scan?ivs="+wiretext.FormatIntervals([]query.Interval{{Lo: 0, Hi: n}}), &scanResp)
	getJSON(t, queryURL(ts.URL, "0,0", "63,63", ""), &queryResp)

	if !scanResp.Complete || len(scanResp.Unavailable) != 0 {
		t.Fatalf("scan incomplete: %v", scanResp.Unavailable)
	}
	if len(scanResp.Records) != len(queryResp.Records) {
		t.Fatalf("scan returned %d records, full-box query %d", len(scanResp.Records), len(queryResp.Records))
	}
	for i := range scanResp.Records {
		a, b := scanResp.Records[i], queryResp.Records[i]
		if a.Payload != b.Payload || len(a.Point) != len(b.Point) || a.Point[0] != b.Point[0] || a.Point[1] != b.Point[1] {
			t.Fatalf("record %d: scan %v/%d, query %v/%d", i, a.Point, a.Payload, b.Point, b.Payload)
		}
	}
}

// TestScanSubsetMatchesDecomposition: scanning exactly a box's decomposed
// intervals equals querying the box.
func TestScanSubsetMatchesDecomposition(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	u := svc.Curve().Universe()
	b, err := query.NewBox(u, u.MustPoint(5, 9), u.MustPoint(40, 31))
	if err != nil {
		t.Fatal(err)
	}
	ivs := query.DecomposeBox(svc.Curve(), b)

	var scanResp, queryResp server.QueryResponse
	getJSON(t, ts.URL+"/scan?ivs="+wiretext.FormatIntervals(ivs), &scanResp)
	getJSON(t, queryURL(ts.URL, "5,9", "40,31", ""), &queryResp)
	if len(scanResp.Records) != len(queryResp.Records) {
		t.Fatalf("scan %d records, query %d", len(scanResp.Records), len(queryResp.Records))
	}
	for i := range scanResp.Records {
		if scanResp.Records[i].Payload != queryResp.Records[i].Payload {
			t.Fatalf("record %d: payload %d vs %d", i, scanResp.Records[i].Payload, queryResp.Records[i].Payload)
		}
	}
}

// TestScanRejectsMalformedIntervals: empty, unparsable, inverted, unsorted,
// overlapping, out-of-range and oversized interval sets answer 400 before
// touching the service.
func TestScanRejectsMalformedIntervals(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bad := range []string{
		"",          // missing
		"x-y",       // unparsable
		"5-5",       // empty interval
		"9-3",       // inverted
		"8-16,0-4",  // unsorted
		"0-8,4-12",  // overlapping
		"0-1000000", // beyond the index space
		"1-2-3",     // malformed element
	} {
		resp, err := http.Get(ts.URL + "/scan?ivs=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("ivs=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestParseFormatIntervalsRoundTrip: the wire form survives a round trip.
func TestParseFormatIntervalsRoundTrip(t *testing.T) {
	ivs := []query.Interval{{Lo: 0, Hi: 7}, {Lo: 9, Hi: 12}, {Lo: 100, Hi: 4096}}
	got, err := wiretext.ParseIntervals(wiretext.FormatIntervals(ivs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ivs) {
		t.Fatalf("round trip: %v", got)
	}
	for i := range ivs {
		if got[i] != ivs[i] {
			t.Fatalf("round trip: %v != %v", got[i], ivs[i])
		}
	}
}

// TestValidateIntervals pins the shared validator the server, the service
// and the cluster router all gate on.
func TestValidateIntervals(t *testing.T) {
	const n = 64
	if err := service.ValidateIntervals([]query.Interval{{Lo: 0, Hi: 8}, {Lo: 8, Hi: 64}}, n); err != nil {
		t.Fatalf("adjacent intervals rejected: %v", err)
	}
	for _, bad := range [][]query.Interval{
		nil,
		{},
		{{Lo: 3, Hi: 3}},
		{{Lo: 9, Hi: 3}},
		{{Lo: 0, Hi: 65}},
		{{Lo: 8, Hi: 16}, {Lo: 0, Hi: 4}},
		{{Lo: 0, Hi: 8}, {Lo: 4, Hi: 12}},
	} {
		if err := service.ValidateIntervals(bad, n); err == nil {
			t.Fatalf("intervals %v accepted", bad)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
