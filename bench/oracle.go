package main

import "repro/internal/store"

// digest is an order-independent summary of a record multiset: how many
// records, and the sum mod 2^64 of a 64-bit mix of each record's
// coordinates and payload. Two multisets with equal digests are equal up
// to a 2^-64 collision, and a dropped, duplicated or altered record
// changes the digest.
type digest struct {
	count uint64
	sum   uint64
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func recordHash(x, y uint32, payload uint64) uint64 {
	return mix64(mix64(uint64(x)<<32|uint64(y)) ^ payload)
}

func (d *digest) add(x, y uint32, payload uint64) {
	d.count++
	d.sum += recordHash(x, y, payload)
}

func (d *digest) addRecords(recs []store.Record) {
	for _, r := range recs {
		d.add(r.Point[0], r.Point[1], r.Payload)
	}
}

func (d *digest) merge(o digest) {
	d.count += o.count
	d.sum += o.sum
}

// oracle answers "which records lie in this box" for the two-dimensional
// data set without touching curve, query or store code: a per-cell table
// of digests, prefix-summed along both axes, so that any box's expected
// digest is four lookups.
type oracle struct {
	side int // cells per axis
	// cnt and sum are (side+1)×(side+1) inclusive prefix tables: entry
	// (x, y) covers the cells [0, x) × [0, y).
	cnt []uint32
	sum []uint64
}

func newOracle(side int, recs []store.Record) *oracle {
	w := side + 1
	o := &oracle{side: side, cnt: make([]uint32, w*w), sum: make([]uint64, w*w)}
	for _, r := range recs {
		i := (int(r.Point[0])+1)*w + int(r.Point[1]) + 1
		o.cnt[i]++
		o.sum[i] += recordHash(r.Point[0], r.Point[1], r.Payload)
	}
	for x := 1; x < w; x++ {
		for y := 1; y < w; y++ {
			i := x*w + y
			o.cnt[i] += o.cnt[i-1] + o.cnt[i-w] - o.cnt[i-w-1]
			o.sum[i] += o.sum[i-1] + o.sum[i-w] - o.sum[i-w-1]
		}
	}
	return o
}

// box returns the digest of the records in [x0, x1] × [y0, y1], corners
// inclusive.
func (o *oracle) box(x0, y0, x1, y1 uint32) digest {
	w := o.side + 1
	a, b := int(x0)*w, (int(x1)+1)*w
	c, d := int(y0), int(y1)+1
	return digest{
		count: uint64(o.cnt[b+d] - o.cnt[a+d] - o.cnt[b+c] + o.cnt[a+c]),
		sum:   o.sum[b+d] - o.sum[a+d] - o.sum[b+c] + o.sum[a+c],
	}
}

// all returns the digest of every record.
func (o *oracle) all() digest {
	return o.box(0, 0, uint32(o.side-1), uint32(o.side-1))
}
