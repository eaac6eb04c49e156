package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/wal"
)

// checkDurability is durable_mixed's closing check. A full-universe query
// through the workload's own door must hold exactly the seeded records
// plus every acknowledged put; then every shard is cut with Crash, which
// throws away log bytes that were never synced, the service is opened
// again from the same directory, and the same must still hold. The daemon
// is gone afterwards.
func checkDurability(ctx context.Context, s *session, ds *dataset, want digest) error {
	var got digest
	a, err := s.query(ctx, 0, fullBox(ds.u), &got)
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	if !a.complete || got != want {
		return fmt.Errorf("full scan: digest (%d, %#x) complete=%v, seeded plus acknowledged puts (%d, %#x)",
			got.count, got.sum, a.complete, want.count, want.sum)
	}

	d := s.daemons[0]
	for j := range d.svc.Shards() {
		if err := d.svc.Durable(j).Crash(); err != nil {
			return fmt.Errorf("crash shard %d: %w", j, err)
		}
	}
	for _, cl := range s.clients {
		cl.Close()
	}
	derr := d.drain()
	s.clients, s.daemons = nil, nil
	if derr != nil {
		return fmt.Errorf("drain after crash: %w", derr)
	}

	svc, err := service.New(ds.c, nil, service.WithShards(dataShards), service.WithDurableDir(s.dataDir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer svc.Close()
	res, err := svc.Range(ctx, fullBox(ds.u))
	if err != nil {
		return fmt.Errorf("scan after reopen: %w", err)
	}
	got = digest{}
	got.addRecords(res.Records)
	if !res.Complete() || got != want {
		return fmt.Errorf("after crash and reopen: digest (%d, %#x) complete=%v, want (%d, %#x)",
			got.count, got.sum, res.Complete(), want.count, want.sum)
	}
	return nil
}

// fullBox covers the whole universe.
func fullBox(u *grid.Universe) query.Box {
	return query.Box{Lo: grid.Point{0, 0}, Hi: grid.Point{u.Side() - 1, u.Side() - 1}}
}

// walStats is what the traced run's wal.File wrappers saw, summed over the
// shards' logs.
type walStats struct {
	mu     sync.Mutex
	syncs  int64
	bytes  int64
	syncNS []int64
}

// counted wraps a log file so that the traced run sees the device calls
// the WAL makes: bytes written, syncs, and how long each sync took.
func (w *walStats) counted(f wal.File) wal.File { return &countedFile{File: f, st: w} }

type countedFile struct {
	wal.File
	st *walStats
}

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.mu.Lock()
	f.st.bytes += int64(n)
	f.st.mu.Unlock()
	return n, err
}

func (f *countedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0).Nanoseconds()
	f.st.mu.Lock()
	f.st.syncs++
	f.st.syncNS = append(f.st.syncNS, d)
	f.st.mu.Unlock()
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
