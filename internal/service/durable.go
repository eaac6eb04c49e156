package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/query"
	"repro/internal/store"
)

// ErrReadOnly is returned (wrapped) by Put, Delete and Flush on a service
// built without WithDurableDir: an in-memory bulkloaded service has no write
// path.
var ErrReadOnly = errors.New("service: read-only (no durable directory)")

// shardScanner is the query surface both shard kinds share: the immutable
// bulkloaded *store.Store and the durable LSM *store.Durable satisfy it with
// the same curve-order and dark-interval contract, so the fan-out/merge in
// ScanStream works unchanged over either.
type shardScanner interface {
	ScanCursor(ivs []query.Interval, opts ...store.ScanOption) (store.BatchCursor, error)
}

// openDurableShards opens (or recovers) one *store.Durable per shard under
// dir/shard-<j>/ and seeds recs into them iff every shard is fresh — a
// directory that already holds data keeps it, and the seed records are
// ignored, which is what a daemon restarting over its data directory wants.
func (s *Service) openDurableShards(dir string, recs []store.Record, cfg *buildConfig) error {
	shards := len(s.scanners)
	s.durables = make([]*store.Durable, shards)
	fresh := true
	for j := 0; j < shards; j++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%04d", j))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return fmt.Errorf("service: shard %d: %w", j, err)
		}
		dOpts := []store.DurableOption{store.WithDurableMetrics(s.reg)}
		if cfg.pageSize != 0 {
			dOpts = append(dOpts, store.WithDurablePageSize(cfg.pageSize))
		}
		if cfg.durableOpts != nil {
			dOpts = append(dOpts, cfg.durableOpts(j)...)
		}
		d, err := store.OpenDurable(sub, s.c, dOpts...)
		if err != nil {
			for _, prev := range s.durables[:j] {
				prev.Close()
			}
			return fmt.Errorf("service: shard %d: %w", j, err)
		}
		s.durables[j] = d
		s.scanners[j] = d
		if d.Runs() != 0 || d.MemOps() != 0 || d.LastSeq() != 0 {
			fresh = false
		}
	}
	if !fresh || len(recs) == 0 {
		return nil
	}
	dealt := make([][]store.Record, shards)
	for _, r := range recs {
		j := s.pt.OwnerOfPosition(s.c.Index(r.Point))
		dealt[j] = append(dealt[j], r)
	}
	for j, d := range s.durables {
		if err := d.Bulkload(context.Background(), dealt[j]); err != nil {
			return fmt.Errorf("service: seeding shard %d: %w", j, err)
		}
	}
	return nil
}

// Durable returns shard j's durable store, or nil when the service is
// in-memory.
func (s *Service) Durable(j int) *store.Durable {
	if s.durables == nil {
		return nil
	}
	return s.durables[j]
}

// DurableMode reports whether the service was built with WithDurableDir.
func (s *Service) DurableMode() bool { return s.durables != nil }

// Put durably inserts r into the shard owning its curve position. The write
// is acknowledged only after it is synced to that shard's WAL.
func (s *Service) Put(ctx context.Context, r store.Record) error {
	return s.write(ctx, r, (*store.Durable).Put)
}

// Delete durably removes every stored instance equal to r (same point, same
// payload) from the shard owning its curve position.
func (s *Service) Delete(ctx context.Context, r store.Record) error {
	return s.write(ctx, r, (*store.Durable).Delete)
}

func (s *Service) write(ctx context.Context, r store.Record, op func(*store.Durable, context.Context, store.Record) error) error {
	if s.durables == nil {
		return fmt.Errorf("service: write: %w", ErrReadOnly)
	}
	if u := s.c.Universe(); !u.Contains(r.Point) {
		return fmt.Errorf("service: write: point %v outside universe %v", r.Point, u)
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("service: write: %w", ErrShuttingDown)
	}
	s.mu.RUnlock()
	j := s.pt.OwnerOfPosition(s.c.Index(r.Point))
	if err := op(s.durables[j], ctx, r); err != nil {
		return fmt.Errorf("service: shard %d: %w", j, err)
	}
	s.writes.Inc()
	return nil
}

// Flush persists every shard's memtable into an on-disk run.
func (s *Service) Flush(ctx context.Context) error {
	if s.durables == nil {
		return fmt.Errorf("service: flush: %w", ErrReadOnly)
	}
	for j, d := range s.durables {
		if err := d.Flush(ctx); err != nil {
			return fmt.Errorf("service: flushing shard %d: %w", j, err)
		}
	}
	return nil
}
