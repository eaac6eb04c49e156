package service

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/curve"
	"repro/internal/query"
	"repro/internal/store"
)

// ErrDigestUnavailable is returned (wrapped) by Digest when some requested
// interval could not be fully read: a digest over a partially dark range
// would compare unequal against a healthy replica for reasons that have
// nothing to do with divergence, so the comparison is refused outright.
var ErrDigestUnavailable = errors.New("service: digest over unavailable intervals")

// RangeDigest summarizes the records held in a set of curve intervals for
// anti-entropy comparison. Count and Sum are order-independent — two
// replicas holding the same multiset of records over a range produce the
// same (Count, Sum) regardless of memtable/run layout — so they are the
// fields peers compare. Generation is node-local write progress (the sum
// of the durable shards' last WAL sequence numbers) and is reported for
// observability only; it is never compared across nodes.
type RangeDigest struct {
	// Count is the number of records in the range.
	Count uint64
	// Sum is a commutative checksum over the records' (curve key, payload)
	// pairs.
	Sum uint64
	// Generation is the node's write progress when the digest was taken.
	Generation uint64
}

// Fold mixes one record into the digest. Folding is commutative and
// associative, so any scan order — or any partition of the range folded
// separately and summed — yields the same digest.
func (d *RangeDigest) Fold(key, payload uint64) {
	d.Count++
	d.Sum += mix64(key ^ mix64(payload))
}

// mix64 is the SplitMix64 finalizer: a cheap bijective scramble that makes
// the commutative sum sensitive to which (key, payload) pairs are present,
// not just to their XOR or count.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FoldStream folds every record of a scan stream, batch by batch, until
// next reports io.EOF: a digest holds one batch at a time, never the range.
// Any other error from next is returned as is.
func (d *RangeDigest) FoldStream(c curve.Curve, next func() ([]store.Record, error)) error {
	for {
		recs, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for i := range recs {
			d.Fold(c.Index(recs[i].Point), recs[i].Payload)
		}
	}
}

// Digest scans ivs and folds every readable record into a RangeDigest. If
// any part of the range is dark the digest fails with a wrapped
// ErrDigestUnavailable — anti-entropy must not "repair" toward a replica
// that cannot currently see its own data.
func (s *Service) Digest(ctx context.Context, ivs []query.Interval) (RangeDigest, error) {
	st, err := s.ScanStream(ctx, ivs)
	if err != nil {
		return RangeDigest{}, fmt.Errorf("service: digest: %w", err)
	}
	defer st.Close()
	var d RangeDigest
	if err := d.FoldStream(s.c, st.Next); err != nil {
		return RangeDigest{}, fmt.Errorf("service: digest: %w", err)
	}
	if tr := st.Trailer(); !tr.Complete() {
		return RangeDigest{}, fmt.Errorf("service: digest: %d dark intervals: %w", len(tr.Unavailable), ErrDigestUnavailable)
	}
	for _, dur := range s.durables {
		d.Generation += dur.LastSeq()
	}
	return d, nil
}
