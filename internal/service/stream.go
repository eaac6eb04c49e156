package service

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/store"
)

// Stream is an in-order incremental view of one sharded query: batches of
// records in global curve order, with the degraded tiling committed in a
// final trailer once every shard has finished. It is the streaming face of
// Range/Scan — Collect over a stream is bit-identical to the buffered
// call, which is exactly how Range and Scan are now implemented.
//
// One goroutine per intersected shard drives that shard's store cursor
// (each page read still runs on the service's bounded worker pool) and
// feeds a small bounded channel. Because shard segments are contiguous,
// disjoint, and ascending in curve order, draining the legs in shard order
// IS the k-way merge by curve key — the heap degenerates to ordered
// concatenation, while later shards keep scanning ahead into their
// buffers. Peak buffering per stream is a few batches per shard,
// independent of result size.
//
// A Stream is single-consumer and must be closed: Close cancels the shard
// legs, reclaims their workers, and joins the producer goroutines.
//
// Buffer lifetime: every batch travels in a legBuf from the process-wide
// free list, and has exactly one owner at a time — the leg that fills it,
// then the leg's channel, then the consumer. The consumer's batch goes back
// to the free list at the next Next; whatever a stream still owns when it
// is closed (the consumer's batch and batches left in leg channels) goes
// back in Close, after the legs have been joined. A released buffer is
// refilled by some other request's leg, so the slice Next returns is valid
// only until the next Next or Close call and must be copied to be kept
// (Collect does).
type Stream struct {
	s      *Service
	sctx   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	chans    []chan streamMsg
	terminal []bool // leg i's terminal message has been received

	cur    int     // leg currently being drained
	curBuf *legBuf // batch handed out by the last Next

	jobs  int
	dark  []query.Interval
	pages int

	trailer Result
	eof     bool
	err     error
	closed  bool
}

// streamMsg is one message on a shard leg: either a batch of records (buf
// non-nil, in curve order, owned by whoever receives it) or the leg's
// terminal (done true: the shard finished with err, or cleanly with its
// dark spans and page count).
type streamMsg struct {
	buf   *legBuf
	done  bool
	dark  []query.Interval
	pages int
	err   error
}

// streamChanCap bounds how many batches a shard leg may buffer ahead of
// the consumer; with the batch in flight and the one the consumer holds,
// a leg owns at most streamChanCap+2 batch buffers.
const streamChanCap = 2

// legBuf carries one batch from a shard leg to the stream's consumer. The
// leg copies a cursor batch into it because the cursor reuses its own
// buffer on the next call, while the leg runs ahead of the consumer.
type legBuf struct{ recs []store.Record }

// legBufs is the free list every stream's legs draw from; see Stream for
// who owns a buffer when.
var legBufs = sync.Pool{New: func() any { return new(legBuf) }}

// maxPooledLegRecords caps the capacity the free list keeps: a cursor
// batch overshoots store.DefaultScanBatch by at most a page and a
// duplicate-key run, and a buffer grown past that is left to the collector.
const maxPooledLegRecords = 4 * store.DefaultScanBatch

// release zeroes the records the buffer holds — their Points reference
// store pages, which a pooled buffer must not pin — and returns it to the
// free list. Only the buffer's current owner may call it.
func (b *legBuf) release() {
	if cap(b.recs) > maxPooledLegRecords {
		return
	}
	clear(b.recs)
	b.recs = b.recs[:0]
	legBufs.Put(b)
}

// RangeStream answers the box query incrementally: batches of records in
// curve order while later curve intervals are still being scanned, then a
// trailer carrying the merged dark intervals, shard count, and page cost.
// The decomposition cache is shared with Range.
func (s *Service) RangeStream(ctx context.Context, b query.Box) (*Stream, error) {
	return s.openStream(ctx, s.cache.get(b))
}

// ScanStream is the streaming variant of Scan: the validated intervals are
// clipped to each shard's segment and streamed in global curve order.
func (s *Service) ScanStream(ctx context.Context, ivs []query.Interval) (*Stream, error) {
	if err := ValidateIntervals(ivs, s.c.Universe().N()); err != nil {
		return nil, fmt.Errorf("service: scan: %w", err)
	}
	return s.openStream(ctx, ivs)
}

// openStream is the scatter core shared by the streaming and buffered
// entry points.
func (s *Service) openStream(ctx context.Context, ivs []query.Interval) (*Stream, error) {
	type job struct {
		shard int
		ivs   []query.Interval
	}
	jobs := make([]job, 0, len(s.scanners))
	for j := range s.scanners {
		lo, hi := s.pt.Segment(j)
		if clipped := query.ClipIntervals(ivs, lo, hi); len(clipped) > 0 {
			jobs = append(jobs, job{shard: j, ivs: clipped})
		}
	}
	s.qTotal.Inc()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		s.qErrors.Inc()
		return nil, fmt.Errorf("service: range: %w", ErrShuttingDown)
	}
	sctx, cancel := context.WithCancel(ctx)
	st := &Stream{
		s:        s,
		sctx:     sctx,
		cancel:   cancel,
		chans:    make([]chan streamMsg, len(jobs)),
		terminal: make([]bool, len(jobs)),
		jobs:     len(jobs),
	}
	st.wg.Add(len(jobs))
	for pos, jb := range jobs {
		ch := make(chan streamMsg, streamChanCap)
		st.chans[pos] = ch
		go s.streamShard(sctx, jb.shard, jb.ivs, ch, &st.wg)
	}
	return st, nil
}

// streamShard is one shard leg: it drives the shard's cursor — every
// cursor batch is a task on the bounded worker pool, so a stream holds a
// worker only while pages are actually being read, never while blocked on
// the consumer — and forwards record batches into ch. The terminal
// message (shard dark spans, page count, or the first error) is always
// delivered; Stream.Close drains the channel, so the blocking send cannot
// leak the goroutine.
func (s *Service) streamShard(ctx context.Context, shard int, ivs []query.Interval, ch chan streamMsg, wg *sync.WaitGroup) {
	defer wg.Done()
	start := time.Now()
	var dark []query.Interval
	pages := 0
	finish := func(err error) {
		s.shardLat[shard].Observe(time.Since(start).Microseconds())
		ch <- streamMsg{done: true, dark: dark, pages: pages, err: err}
	}
	cur, err := s.scanners[shard].ScanCursor(ivs)
	if err != nil {
		finish(err)
		return
	}
	defer cur.Close()
	var (
		b    store.Batch
		nerr error
	)
	done := make(chan struct{}, 1)
	task := func() {
		b, nerr = cur.Next(ctx)
		done <- struct{}{}
	}
	for {
		if err := s.runTask(ctx, task, done); err != nil {
			finish(err)
			return
		}
		if nerr == io.EOF {
			finish(nil)
			return
		}
		if nerr != nil {
			finish(nerr)
			return
		}
		// The batch aliases cursor-owned buffers: copy the deltas we keep
		// and the records we forward before the next cursor call.
		dark = append(dark, b.Dark...)
		pages += b.PagesRead
		if len(b.Records) == 0 {
			continue
		}
		buf := legBufs.Get().(*legBuf)
		buf.recs = append(buf.recs, b.Records...)
		select {
		case ch <- streamMsg{buf: buf}:
		case <-ctx.Done():
			buf.release() // never sent: still the leg's
			finish(ctx.Err())
			return
		}
	}
}

// runTask runs f on the worker pool and waits for it. The caller never
// occupies a worker while blocked sending downstream — backpressure parks
// the leg goroutine, not a pool slot — so streams cannot deadlock the
// pool however small it is.
func (s *Service) runTask(ctx context.Context, f func(), done chan struct{}) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrShuttingDown
	}
	select {
	case s.tasks <- f:
		s.mu.RUnlock()
	case <-ctx.Done():
		s.mu.RUnlock()
		return ctx.Err()
	}
	<-done
	return nil
}

// Next returns the next batch of records in global curve order, or io.EOF
// once every shard has finished — the trailer is then available. The
// returned slice is valid only until the next Next or Close call. The
// first shard error (a canceled context included) ends the stream with
// that error, wrapped exactly like Range's.
func (st *Stream) Next() ([]store.Record, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.eof {
		return nil, io.EOF
	}
	if st.curBuf != nil {
		st.curBuf.release()
		st.curBuf = nil
	}
	for st.cur < len(st.chans) {
		msg := <-st.chans[st.cur]
		if msg.done {
			st.terminal[st.cur] = true
			if msg.err != nil {
				st.err = fmt.Errorf("service: range: %w", msg.err)
				st.s.qErrors.Inc()
				st.cancel()
				return nil, st.err
			}
			st.dark = append(st.dark, msg.dark...)
			st.pages += msg.pages
			st.cur++
			continue
		}
		st.curBuf = msg.buf
		return msg.buf.recs, nil
	}
	st.eof = true
	// Per-shard dark lists are sorted and confined to disjoint ascending
	// segments, so the concatenation is already sorted; MergeIntervals
	// coalesces abutting spans across a shard boundary.
	st.trailer = Result{
		ShardsQueried: st.jobs,
		Unavailable:   query.MergeIntervals(st.dark),
		PagesRead:     int64(st.pages),
	}
	st.s.pagesRead.Add(int64(st.pages))
	if !st.trailer.Complete() {
		st.s.qDegraded.Inc()
	}
	return nil, io.EOF
}

// Trailer returns the end-of-stream summary (dark intervals, shard count,
// page cost). It is valid only after Next has returned io.EOF.
func (st *Stream) Trailer() Result { return st.trailer }

// Collect drains the stream into the buffered Result shape. The records
// are copied out of the stream's recycled buffers.
func (st *Stream) Collect() (Result, error) {
	var recs []store.Record
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
		recs = append(recs, b...)
	}
	res := st.Trailer()
	res.Records = recs
	return res, nil
}

// Close cancels the shard legs, drains their channels, joins the producer
// goroutines, and then releases every batch buffer the stream still owns.
// It is idempotent and must be called exactly like a rows-style iterator's
// Close, whether or not the stream was drained.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	st.cancel()
	var left []*legBuf // batches the consumer never took
	for i := range st.chans {
		for !st.terminal[i] {
			msg := <-st.chans[i]
			st.terminal[i] = msg.done
			if msg.buf != nil {
				left = append(left, msg.buf)
			}
		}
	}
	st.wg.Wait()
	for _, b := range left {
		b.release()
	}
	if st.curBuf != nil {
		st.curBuf.release()
		st.curBuf = nil
	}
}
