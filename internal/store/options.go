package store

import "fmt"

// buildConfig is the resolved Bulkload configuration after every Option has
// been applied.
type buildConfig struct {
	pageSize int
	fanout   int
	device   PageDevice
	wrap     func(PageDevice) (PageDevice, error)
	retry    *RetryPolicy
}

// Option configures Bulkload. Options are applied in order; later options
// override earlier ones.
type Option interface {
	apply(*buildConfig) error
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*buildConfig) error

func (f optionFunc) apply(b *buildConfig) error { return f(b) }

// WithPageSize sets the leaf page capacity in records (default 64, min 2).
func WithPageSize(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 2 {
			return fmt.Errorf("store: page size %d too small", n)
		}
		b.pageSize = n
		return nil
	})
}

// WithFanout sets the inner-node fanout (default 64, min 2).
func WithFanout(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 2 {
			return fmt.Errorf("store: fanout %d too small", n)
		}
		b.fanout = n
		return nil
	})
}

// WithDevice routes leaf reads through dev from the moment the store is
// built. The device must hold exactly the store's page count; installing any
// device other than the default turns on per-page checksum verification.
// Mutually exclusive with WithDeviceWrapper (the last one wins).
func WithDevice(dev PageDevice) Option {
	return optionFunc(func(b *buildConfig) error {
		if dev == nil {
			return fmt.Errorf("store: WithDevice(nil)")
		}
		b.device, b.wrap = dev, nil
		return nil
	})
}

// WithDeviceWrapper wraps the default in-memory device with wrap after the
// store is built — the natural hook for fault injectors, which need the
// bulkloaded device to exist before they can wrap it:
//
//	store.Bulkload(c, recs, store.WithDeviceWrapper(func(d store.PageDevice) (store.PageDevice, error) {
//		return faultio.Wrap(d, cfg)
//	}))
func WithDeviceWrapper(wrap func(PageDevice) (PageDevice, error)) Option {
	return optionFunc(func(b *buildConfig) error {
		if wrap == nil {
			return fmt.Errorf("store: WithDeviceWrapper(nil)")
		}
		b.wrap, b.device = wrap, nil
		return nil
	})
}

// WithRetryPolicy sets the retry policy used for fallible devices. Zero
// fields take their defaults.
func WithRetryPolicy(rp RetryPolicy) Option {
	return optionFunc(func(b *buildConfig) error {
		b.retry = &rp
		return nil
	})
}
