package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// handleJSON is the HTTP/JSON door for op:
//
//	GET  /query?lo=x1,…,xd&hi=y1,…,yd   box query
//	GET  /scan?ivs=lo-hi,lo-hi,…        raw curve-interval scan
//	GET  /digest?ivs=lo-hi,…            anti-entropy range summary
//	POST /put, /delete  {"point":[…],"payload":n}
//	POST /flush
//
// each taking an optional &timeout=250ms. The request's context — canceled
// when the client disconnects — is the pipeline's.
func (s *Server) handleJSON(op opKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serve(r.Context(), &jsonExchange{s: s, w: w, r: r, op: op})
	}
}

// jsonExchange is the JSON codec for one request. Reads collect every batch
// and encode the body once, so a failure mid-scan is still a clean status
// code rather than a truncated 200.
type jsonExchange struct {
	s    *Server
	w    http.ResponseWriter
	r    *http.Request
	op   opKind
	recs []store.Record
}

func (x *jsonExchange) decode() (request, error) {
	req := request{op: x.op}
	q := x.r.URL.Query()
	var err error
	switch x.op {
	case opQuery:
		u := x.s.b.Curve().Universe()
		var lo, hi []uint32
		if lo, err = wiretext.ParsePoint(q.Get("lo"), u.D()); err != nil {
			return req, classed{failBadRequest, fmt.Errorf("lo: %w", err)}
		}
		if hi, err = wiretext.ParsePoint(q.Get("hi"), u.D()); err != nil {
			return req, classed{failBadRequest, fmt.Errorf("hi: %w", err)}
		}
		if req.box, err = query.NewBox(u, lo, hi); err != nil {
			return req, classed{failBadRequest, err}
		}
	case opScan, opDigest:
		if req.ivs, err = wiretext.ParseIntervals(q.Get("ivs")); err != nil {
			return req, classed{failBadRequest, fmt.Errorf("ivs: %w", err)}
		}
	default:
		if x.r.Method != http.MethodPost {
			return req, classed{failMethod, errors.New("POST only")}
		}
		if x.op != opFlush {
			var body WriteRequest
			if err := json.NewDecoder(http.MaxBytesReader(x.w, x.r.Body, 1<<16)).Decode(&body); err != nil {
				return req, classed{failBadRequest, fmt.Errorf("body: %w", err)}
			}
			req.rec = store.Record{Point: body.Point, Payload: body.Payload}
		}
	}
	if t := q.Get("timeout"); t != "" {
		if req.timeout, err = time.ParseDuration(t); err != nil || req.timeout <= 0 {
			return req, classed{failBadRequest, fmt.Errorf("timeout: bad duration %q", t)}
		}
	}
	return req, nil
}

func (x *jsonExchange) batch(recs []store.Record) error {
	x.recs = append(x.recs, recs...)
	return nil
}

func (x *jsonExchange) trailer(res service.Result, elapsedUS int64) error {
	res.Records = x.recs
	return x.ok(toResponse(res, elapsedUS))
}

func (x *jsonExchange) digest(d service.RangeDigest, elapsedUS int64) error {
	return x.ok(toDigestResponse(d, elapsedUS))
}

func (x *jsonExchange) ack(a WriteResponse, _ int64) error { return x.ok(a) }

// ok sends a 200 body. A write error here means the client hung up after
// the work was done; there is nobody left to tell.
func (x *jsonExchange) ok(body any) error {
	x.w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(x.w).Encode(body)
	return nil
}

func (x *jsonExchange) fail(c failClass, msg string) {
	f := failures[c]
	if f.status == 0 {
		return
	}
	h := x.w.Header()
	h.Set("Content-Type", "application/json")
	if f.retryAfter {
		h.Set("Retry-After", strconv.Itoa(x.s.retryAfterSec))
	}
	if c == failMethod {
		h.Set("Allow", http.MethodPost)
	}
	x.w.WriteHeader(f.status)
	json.NewEncoder(x.w).Encode(ErrorResponse{Error: msg})
}
