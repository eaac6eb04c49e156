package main

import (
	"math"
	"sort"

	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// rng is a SplitMix64 stream: every box position, trace order, put point
// and coin flip of a run is drawn from streams seeded by -seed, so the
// inputs do not depend on the Go version's math/rand.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: mix64(uint64(seed)) ^ mix64(stream*0x9e3779b97f4a7c15+1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// boxSide is the side length of box i along one axis. It depends on the
// box's number only, never on the seed: every seed then asks for the same
// total area, and only where the boxes lie and in which order they are
// asked changes from seed to seed.
func boxSide(i, axis, minSide, maxSide int) int {
	return minSide + int(mix64(uint64(i)*2+uint64(axis)+0x5fc)%uint64(maxSide-minSide+1))
}

// genBoxes places the workload's distinct boxes. A position is drawn
// again until the box holds exactly the record count its area predicts at
// the data set's mean density, so the records returned per operation are
// the same for every seed; with zipf popularity one box takes a quarter of
// the traffic, and without this rule its luck in the draw would move
// records_per_s by more than the metric's bound.
func genBoxes(u *grid.Universe, or *oracle, records int, spec workloadSpec, seed int64) ([]query.Box, []digest, error) {
	r := newRNG(seed, 1)
	side := int(u.Side())
	density := float64(records) / float64(side*side)
	boxes := make([]query.Box, spec.boxes)
	want := make([]digest, spec.boxes)
	for i := range boxes {
		w := boxSide(i, 0, spec.minSide, spec.maxSide)
		h := boxSide(i, 1, spec.minSide, spec.maxSide)
		target := uint64(math.Round(float64(w*h) * density))
		var x, y uint32
		var dg digest
		// The chance of an exact hit is about 1/sqrt(2π·target), 0.4% for
		// the largest boxes; the cap only bounds a pathological data set.
		for try := 0; try < 1<<16; try++ {
			x, y = uint32(r.intn(side-w+1)), uint32(r.intn(side-h+1))
			dg = or.box(x, y, x+uint32(w)-1, y+uint32(h)-1)
			if dg.count == target {
				break
			}
		}
		b, err := query.NewBox(u, grid.Point{x, y}, grid.Point{x + uint32(w) - 1, y + uint32(h) - 1})
		if err != nil {
			return nil, nil, err
		}
		boxes[i], want[i] = b, dg
	}
	return boxes, want, nil
}

// op is one operation of a trace: a query of boxes[box], or a put.
type op struct {
	box int32
	put bool
}

// genTrace draws the operation sequence: box numbers by zipf or uniform
// popularity and, where the workload writes, a fair coin per operation for
// put against query.
func genTrace(spec workloadSpec, n int, seed int64) []op {
	r := newRNG(seed, 2)
	var cdf []float64
	if spec.zipf > 0 {
		cdf = make([]float64, spec.boxes)
		var h float64
		for k := range cdf {
			h += math.Pow(float64(k+1), -spec.zipf)
			cdf[k] = h
		}
		for k := range cdf {
			cdf[k] /= h
		}
	}
	ops := make([]op, n)
	for i := range ops {
		if spec.putShare > 0 && r.float() < spec.putShare {
			ops[i].put = true
			continue
		}
		if cdf != nil {
			ops[i].box = int32(min(sort.SearchFloat64s(cdf, r.float()), spec.boxes-1))
		} else {
			ops[i].box = int32(r.intn(spec.boxes))
		}
	}
	return ops
}

// putBase keeps put payloads clear of the seeded records' payloads, which
// are their positions in the generated set.
const putBase = 1 << 40

// putRecord is the record operation i writes: a uniform point and a
// payload no other record carries.
func putRecord(u *grid.Universe, seed int64, i int) store.Record {
	h := mix64(mix64(uint64(seed)+3) ^ uint64(i))
	return store.Record{
		Point:   grid.Point{uint32(h) % u.Side(), uint32(h>>32) % u.Side()},
		Payload: putBase + uint64(i),
	}
}
