package service

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/store"
)

// buildConfig is the resolved New configuration after every Option has been
// applied.
type buildConfig struct {
	shards      int
	workers     int
	cacheSize   int
	pageSize    int
	registry    *metrics.Registry
	shardOpts   func(j int) []store.Option
	durableDir  string
	durableOpts func(j int) []store.DurableOption
}

// Option configures New, mirroring the store's Bulkload options. Options
// are applied in order; later options override earlier ones.
type Option interface {
	apply(*buildConfig) error
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*buildConfig) error

func (f optionFunc) apply(b *buildConfig) error { return f(b) }

// WithShards sets the number of store shards (default 1).
func WithShards(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 1 {
			return fmt.Errorf("service: %d shards", n)
		}
		b.shards = n
		return nil
	})
}

// WithWorkers bounds the pool executing per-shard scans (default
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 1 {
			return fmt.Errorf("service: %d workers", n)
		}
		b.workers = n
		return nil
	})
}

// WithCacheSize sets the decomposition cache capacity in entries: 0 means
// DefaultCacheSize, negative disables retention (coalescing of concurrent
// identical decompositions is kept).
func WithCacheSize(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		b.cacheSize = n
		return nil
	})
}

// WithPageSize sets the leaf page size of every shard store (default: the
// store default).
func WithPageSize(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 2 {
			return fmt.Errorf("service: page size %d too small", n)
		}
		b.pageSize = n
		return nil
	})
}

// WithMetrics routes the service metrics into reg — e.g. the registry a
// network daemon already exposes on /metrics — instead of a private one.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(b *buildConfig) error {
		if reg == nil {
			return fmt.Errorf("service: WithMetrics(nil)")
		}
		b.registry = reg
		return nil
	})
}

// WithShardStoreOptions supplies extra bulkload options for shard j — the
// hook fault-injection tests use to wrap each shard's device. It applies
// only to in-memory services; durable shards take WithDurableShardOptions.
func WithShardStoreOptions(f func(j int) []store.Option) Option {
	return optionFunc(func(b *buildConfig) error {
		if f == nil {
			return fmt.Errorf("service: WithShardStoreOptions(nil)")
		}
		b.shardOpts = f
		return nil
	})
}

// WithDurableDir switches the service to durable shards: each shard is a
// write-ahead-logged *store.Durable living under dir/shard-<j>/, recovered
// on open, and the service gains the Put/Delete/Flush write path. The seed
// records passed to New are bulkloaded only when every shard directory is
// fresh; a directory that already holds data keeps it and the seed is
// ignored — restarting a daemon over its data directory serves the
// recovered data, not a reload.
func WithDurableDir(dir string) Option {
	return optionFunc(func(b *buildConfig) error {
		if dir == "" {
			return fmt.Errorf("service: WithDurableDir(\"\")")
		}
		b.durableDir = dir
		return nil
	})
}

// WithDurableShardOptions supplies extra open options for durable shard j —
// the hook fault-injection tests use to wrap each shard's WAL or run
// devices. It applies only together with WithDurableDir.
func WithDurableShardOptions(f func(j int) []store.DurableOption) Option {
	return optionFunc(func(b *buildConfig) error {
		if f == nil {
			return fmt.Errorf("service: WithDurableShardOptions(nil)")
		}
		b.durableOpts = f
		return nil
	})
}
