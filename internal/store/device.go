package store

import (
	"errors"
	"fmt"
	"time"
)

// Page is one leaf page as served by a PageDevice: the keys and records of
// up to pageSize consecutive slots (the last page may be short). Devices may
// return views of shared memory; callers must treat pages as read-only.
type Page struct {
	ID      int
	Keys    []uint64
	Records []Record
}

// PageDevice is the storage medium leaf pages are fetched from. The default
// device is the infallible in-memory MemDevice built by Bulkload; fallible
// media (disk simulations, fault injectors) implement the same interface and
// are installed with WithDevice or WithDeviceWrapper. Inner index levels
// always stay in RAM — the fault model covers leaf I/O, which is where the
// paper's page-access cost lives.
//
// Implementations must be safe for concurrent ReadPage calls.
type PageDevice interface {
	// ReadPage fetches one leaf page. A non-nil error means this attempt
	// failed; the store retries with bounded exponential backoff unless the
	// error wraps ErrPermanent.
	ReadPage(id int) (Page, error)
	// NumPages returns the number of leaf pages the device holds.
	NumPages() int
}

// ErrPermanent marks a page as unrecoverable: the store's retry loop gives
// up immediately instead of burning its attempt budget. Fault injectors wrap
// it for permanently lost pages.
var ErrPermanent = errors.New("page permanently unavailable")

// MemDevice is the default in-memory page device: reads are views into the
// bulkloaded arrays and never fail.
type MemDevice struct {
	pageSize int
	keys     []uint64
	records  []Record
}

// NumPages implements PageDevice.
func (m *MemDevice) NumPages() int {
	return (len(m.keys) + m.pageSize - 1) / m.pageSize
}

// ReadPage implements PageDevice.
func (m *MemDevice) ReadPage(id int) (Page, error) {
	if id < 0 || id >= m.NumPages() {
		return Page{}, fmt.Errorf("store: page %d out of range [0, %d)", id, m.NumPages())
	}
	lo := id * m.pageSize
	hi := lo + m.pageSize
	if hi > len(m.keys) {
		hi = len(m.keys)
	}
	return Page{ID: id, Keys: m.keys[lo:hi], Records: m.records[lo:hi]}, nil
}

var _ PageDevice = (*MemDevice)(nil)

// pageChecksum hashes a page's full content — keys, coordinates, payloads —
// with FNV-1a/64. Each step h = (h xor b)·prime is a bijection in h, so two
// inputs differing in any single byte can never re-converge: every
// single-bit corruption is guaranteed to change the sum.
func pageChecksum(pg Page) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	for _, k := range pg.Keys {
		word(k)
	}
	for _, r := range pg.Records {
		for _, c := range r.Point {
			word(uint64(c))
		}
		word(r.Payload)
	}
	return h
}

// RetryPolicy bounds the per-page retry loop around a fallible device.
// Backoff is *simulated*: the store is an I/O cost model, so the would-be
// sleep is accumulated in Stats.Backoff instead of stalling the process.
type RetryPolicy struct {
	MaxAttempts int           // total read attempts per page fetch (default 4)
	BaseBackoff time.Duration // backoff after the first failed attempt (default 1ms)
	MaxBackoff  time.Duration // exponential cap (default 100ms)
	JitterSeed  int64         // seeds the deterministic ±25% jitter
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts == 0 {
		rp.MaxAttempts = 4
	}
	if rp.BaseBackoff == 0 {
		rp.BaseBackoff = time.Millisecond
	}
	if rp.MaxBackoff == 0 {
		rp.MaxBackoff = 100 * time.Millisecond
	}
	return rp
}

// backoff returns the simulated wait before retry number `retry` (1-based)
// of the given page: exponential in the retry count, capped at MaxBackoff,
// with a deterministic ±25% jitter so retries across pages decorrelate
// reproducibly.
func (rp RetryPolicy) backoff(page, retry int) time.Duration {
	d := rp.BaseBackoff
	for i := 1; i < retry && d < rp.MaxBackoff; i++ {
		d *= 2
	}
	if d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	h := splitmix64(uint64(rp.JitterSeed) ^ uint64(page)*0x9e3779b97f4a7c15 ^ uint64(retry)<<48)
	jitter := 0.75 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * jitter)
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash used for
// deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
