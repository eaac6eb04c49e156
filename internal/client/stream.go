package client

import (
	"io"
	"slices"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
)

// Stream is the iterator a streaming scan yields: record batches in curve
// order, then a trailer carrying the dark intervals and pages-read summary.
// A Stream is single-goroutine; Close may be called from anywhere once.
//
//	st, err := c.ScanStream(ctx, ivs)
//	if err != nil { ... }
//	defer st.Close()
//	for {
//		batch, err := st.Next()
//		if err == io.EOF { break }
//		if err != nil { ... }
//		consume(batch)
//	}
//	trailer, _ := st.Trailer()
type Stream struct {
	// recv yields the next batch, (nil, io.EOF) at end of stream, or the
	// failure that ended the stream. Implementations set s.trailer before
	// returning io.EOF.
	recv func(s *Stream) ([]store.Record, error)
	// stop releases transport resources; nil for buffered streams.
	stop func()
	// whole is the answer a buffered stream was built from, until Next
	// starts consuming it: Collect hands it back as it arrived instead of
	// converting every record to the stream's shape and back, which costs
	// the buffered JSON read about 5% of its median latency
	// (hot_small_json).
	whole *server.QueryResponse

	trailer     wire.Trailer
	haveTrailer bool
	done        bool
	err         error
}

// Next returns the next batch of records, in curve order within and across
// batches. It returns (nil, io.EOF) when the stream ended cleanly — the
// trailer is then available — or the error that broke the stream. Batches
// alias an internal coordinate slab; they remain valid after subsequent
// Next calls.
func (s *Stream) Next() ([]store.Record, error) {
	if s.done {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	batch, err := s.recv(s)
	if err != nil {
		err = resolve(kindRead, err)
		s.done = true
		if err != io.EOF {
			s.err = err
		}
		if s.stop != nil {
			s.stop()
		}
		return nil, err
	}
	return batch, nil
}

// Trailer returns the end-of-stream summary; ok is false until Next has
// returned io.EOF.
func (s *Stream) Trailer() (wire.Trailer, bool) {
	return s.trailer, s.haveTrailer
}

// Close abandons the stream. It is safe to call at any point and after
// Next returned io.EOF.
func (s *Stream) Close() error {
	if !s.done {
		s.done = true
		s.err = io.ErrClosedPipe
		if s.stop != nil {
			s.stop()
		}
	}
	return nil
}

// Collect drains the stream into a single QueryResponse — the bridge from
// the streaming API back to the buffered one.
func (s *Stream) Collect() (server.QueryResponse, error) {
	if s.whole != nil && !s.done {
		s.done = true
		return *s.whole, nil
	}
	var out server.QueryResponse
	for {
		batch, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return server.QueryResponse{}, err
		}
		out.Records = slices.Grow(out.Records, len(batch))
		for _, r := range batch {
			out.Records = append(out.Records, server.WireRecord{Point: r.Point, Payload: r.Payload})
		}
	}
	tr, _ := s.Trailer()
	out.ShardsQueried = tr.ShardsQueried
	out.ElapsedUS = tr.ElapsedUS
	out.PagesRead = tr.PagesRead
	out.Complete = tr.Complete()
	if len(tr.Unavailable) > 0 {
		out.Unavailable = make([]server.WireInterval, len(tr.Unavailable))
		for i, iv := range tr.Unavailable {
			out.Unavailable[i] = server.WireInterval{Lo: iv.Lo, Hi: iv.Hi}
		}
	}
	return out, nil
}

// newBufferedStream replays an already-fetched answer as a one-batch
// stream — the JSON transport's only stream.
func newBufferedStream(resp *server.QueryResponse) *Stream {
	return &Stream{whole: resp, recv: func(s *Stream) ([]store.Record, error) {
		first := s.whole != nil
		s.whole = nil
		if first && len(resp.Records) > 0 {
			batch := make([]store.Record, len(resp.Records))
			for i, r := range resp.Records {
				batch[i] = store.Record{Point: r.Point, Payload: r.Payload}
			}
			return batch, nil
		}
		s.trailer = wire.Trailer{ShardsQueried: resp.ShardsQueried, PagesRead: resp.PagesRead, ElapsedUS: resp.ElapsedUS}
		for _, iv := range resp.Unavailable {
			s.trailer.Unavailable = append(s.trailer.Unavailable, query.Interval{Lo: iv.Lo, Hi: iv.Hi})
		}
		s.haveTrailer = true
		return nil, io.EOF
	}}
}
