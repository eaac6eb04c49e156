package core

import (
	"repro/internal/curve"
	"repro/internal/grid"
)

// Kernelized sweep partials: when the curve advertises a batch/neighbor-key
// fast path (curve.HasKernel), the exact engines process cells in
// chunk-local blocks — one batched encode for the cells' own keys, then one
// NeighborKeys call per cell — instead of a FromLinear + 1+2d interface
// Index calls per cell. The per-cell integer aggregates (sum, max, degree)
// and the chunk-ordered floating-point accumulation are identical to the
// scalar partials, so the results are bit-for-bit the same; the conformance
// engine's kernel-sweep column enforces that permanently.

// kernelBlock is the number of cells whose coordinates and keys are staged
// per batch: big enough to amortize dispatch, small enough that the staging
// buffers (12 bytes per cell at d=3) stay in L1.
const kernelBlock = 256

// nnAcc carries one chunk's running totals of the NN sweeps.
type nnAcc struct{ avg, max float64 }

// fillBlockCoords writes the coordinates of the cells with Linear indices
// [lo, lo+cnt) into coords, row-major, by decoding the first cell and
// incrementing with carries from there (dimension 0 is least significant).
// The copy-and-carry is fused into one elementwise pass — a memmove call per
// 8-byte row would dominate the whole sweep kernel.
func fillBlockCoords(u *grid.Universe, lo uint64, cnt int, coords []uint32) {
	d := u.D()
	side := u.Side()
	u.FromLinear(lo, grid.Point(coords[:d]))
	for j := 1; j < cnt; j++ {
		prev := coords[(j-1)*d : j*d : j*d]
		row := coords[j*d : (j+1)*d : (j+1)*d]
		i := 0
		for ; i < d; i++ {
			if v := prev[i] + 1; v < side {
				row[i] = v
				i++
				break
			}
			row[i] = 0
		}
		for ; i < d; i++ {
			row[i] = prev[i]
		}
	}
}

// accumulate folds one neighbor key into a cell's (sum, max, degree)
// aggregate.
func accumulate(base, nb uint64, sum, max uint64, deg int) (uint64, uint64, int) {
	if nb == curve.InvalidKey {
		return sum, max, deg
	}
	dd := nb - base
	if base > nb {
		dd = base - nb
	}
	sum += dd
	if dd > max {
		max = dd
	}
	return sum, max, deg + 1
}

// cellAggregate reduces one cell's neighbor-key row to its integer
// (sum, max, degree) triple. The d = 2, 3 rows are unrolled: the reduction
// runs once per cell of every exact sweep, and at ~20 surviving ops per cell
// the loop bookkeeping itself is measurable.
func cellAggregate(base uint64, row []uint64) (sum, max uint64, deg int) {
	switch len(row) {
	case 4:
		sum, max, deg = accumulate(base, row[0], sum, max, deg)
		sum, max, deg = accumulate(base, row[1], sum, max, deg)
		sum, max, deg = accumulate(base, row[2], sum, max, deg)
		sum, max, deg = accumulate(base, row[3], sum, max, deg)
	case 6:
		sum, max, deg = accumulate(base, row[0], sum, max, deg)
		sum, max, deg = accumulate(base, row[1], sum, max, deg)
		sum, max, deg = accumulate(base, row[2], sum, max, deg)
		sum, max, deg = accumulate(base, row[3], sum, max, deg)
		sum, max, deg = accumulate(base, row[4], sum, max, deg)
		sum, max, deg = accumulate(base, row[5], sum, max, deg)
	default:
		for _, nb := range row {
			sum, max, deg = accumulate(base, nb, sum, max, deg)
		}
	}
	return sum, max, deg
}

// nnKernelPartial is the kernelized chunk worker behind NNStretchResult.
// It reproduces the scalar partial's arithmetic exactly: per cell the
// integer (sum, max, degree) over valid neighbors, folded through the shared
// nnSum in Linear cell order.
func nnKernelPartial(c curve.Curve, u *grid.Universe) func(lo, hi uint64) nnAcc {
	d := u.D()
	return func(lo, hi uint64) nnAcc {
		b := curve.NewBatcher(c)
		nk := curve.NewNeighborKeyer(c)
		nd := 2 * d
		coords := make([]uint32, kernelBlock*d)
		bases := make([]uint64, kernelBlock)
		keys := make([]uint64, kernelBlock*nd)
		var a nnSum
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := kernelBlock
			if rem := hi - blo; rem < kernelBlock {
				cnt = int(rem)
			}
			fillBlockCoords(u, blo, cnt, coords)
			b.IndexBatch(coords[:cnt*d], bases[:cnt])
			nk.NeighborKeysBlock(coords[:cnt*d], bases[:cnt], keys[:cnt*nd])
			for j := 0; j < cnt; j++ {
				a.addCell(cellAggregate(bases[j], keys[j*nd:(j+1)*nd:(j+1)*nd]))
			}
		}
		return a.acc()
	}
}

// nnTorusKernelPartial is the kernelized chunk worker behind
// NNStretchTorusResult; like the scalar torus partial it skips degree-zero
// cells.
func nnTorusKernelPartial(c curve.Curve, u *grid.Universe) func(lo, hi uint64) nnAcc {
	d := u.D()
	return func(lo, hi uint64) nnAcc {
		b := curve.NewBatcher(c)
		nk := curve.NewNeighborKeyer(c)
		nd := 2 * d
		coords := make([]uint32, kernelBlock*d)
		bases := make([]uint64, kernelBlock)
		keys := make([]uint64, kernelBlock*nd)
		var a nnSum
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := kernelBlock
			if rem := hi - blo; rem < kernelBlock {
				cnt = int(rem)
			}
			fillBlockCoords(u, blo, cnt, coords)
			b.IndexBatch(coords[:cnt*d], bases[:cnt])
			nk.NeighborKeysTorusBlock(coords[:cnt*d], bases[:cnt], keys[:cnt*nd])
			for j := 0; j < cnt; j++ {
				sum, max, deg := cellAggregate(bases[j], keys[j*nd:(j+1)*nd:(j+1)*nd])
				if deg == 0 {
					continue
				}
				a.addCell(sum, max, deg)
			}
		}
		return a.acc()
	}
}

// lambdasKernelPartial is the kernelized chunk worker behind Lambdas: only
// the +1 neighbor keys contribute (the unordered pair (α, α+e_dim) is
// charged to α).
func lambdasKernelPartial(c curve.Curve, u *grid.Universe) func(lo, hi uint64) []uint64 {
	d := u.D()
	return func(lo, hi uint64) []uint64 {
		b := curve.NewBatcher(c)
		nk := curve.NewNeighborKeyer(c)
		nd := 2 * d
		coords := make([]uint32, kernelBlock*d)
		bases := make([]uint64, kernelBlock)
		keys := make([]uint64, kernelBlock*nd)
		sums := make([]uint64, d)
		for blo := lo; blo < hi; blo += kernelBlock {
			cnt := kernelBlock
			if rem := hi - blo; rem < kernelBlock {
				cnt = int(rem)
			}
			fillBlockCoords(u, blo, cnt, coords)
			b.IndexBatch(coords[:cnt*d], bases[:cnt])
			nk.NeighborKeysBlock(coords[:cnt*d], bases[:cnt], keys[:cnt*nd])
			for j := 0; j < cnt; j++ {
				base := bases[j]
				for dim := 0; dim < d; dim++ {
					if nb := keys[j*nd+2*dim+1]; nb != curve.InvalidKey {
						sums[dim] += absDiff(base, nb)
					}
				}
			}
		}
		return sums
	}
}
