package bits

// Dilated-integer arithmetic (Raman & Wise, "Converting to and from Dilated
// Integers"): a coordinate embedded in a Morton key occupies every d-th bit,
// and arithmetic on it can be carried out directly in key space by letting
// carries ripple through the gap bits and masking them away afterwards: the
// Morton key of the cell at x_i ± 1 is a handful of masked adds on the
// cell's own key — no deinterleave/reinterleave round trip.

// DilatedMasks returns one mask per dimension of a d-dimensional, k-level
// Morton key in this package's bit convention (Interleave): the mask for
// dimension i selects the bits of coordinate i, i.e. positions
// level·d + (d−1−i) for level = 0 … k−1. The lowest set bit of a mask is the
// dilated representation of 1 for that dimension (mask & -mask).
func DilatedMasks(d, k int) []uint64 {
	masks := make([]uint64, d)
	for i := 0; i < d; i++ {
		var m uint64
		for level := 0; level < k; level++ {
			m |= 1 << uint(level*d+(d-1-i))
		}
		masks[i] = m
	}
	return masks
}

// DilatedAdd adds two dilated integers sharing the same mask, modulo 2^k in
// the embedded coordinate: carries propagate through the gap bits (forced to
// one so they ripple to the next mask bit) and a carry out of the top mask
// bit is discarded, which is exactly the torus wraparound side−1 → 0. Only
// the masked bits of the result are returned; bits of a outside the mask do
// not influence the result and must be re-attached by the caller.
func DilatedAdd(a, b, mask uint64) uint64 {
	return ((a | ^mask) + (b & mask)) & mask
}

// DilatedSub subtracts the dilated integer b from a under the shared mask,
// modulo 2^k in the embedded coordinate: borrows propagate through the
// zeroed gap bits, and a borrow out of the top mask bit wraps 0 → side−1.
// As with DilatedAdd, only the masked bits are returned.
func DilatedSub(a, b, mask uint64) uint64 {
	return ((a & mask) - (b & mask)) & mask
}
