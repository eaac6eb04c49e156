package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/curve"
	"repro/internal/grid"
)

// SampledNN is a sampled estimate of the nearest-neighbor stretch.
type SampledNN struct {
	DAvg       float64 // estimate of Davg(π)
	DAvgStdErr float64 // standard error of the DAvg estimate
	DMax       float64 // estimate of Dmax(π)
	Samples    int
}

// SampledNNStretch estimates Davg and Dmax by sampling cells uniformly at
// random (deterministically from seed) and evaluating δavg/δmax exactly at
// each sampled cell. Unlike the exact sweep, it only needs O(samples · d)
// curve evaluations, so it runs on universes far beyond the 2^20-cell exact
// regime.
//
// Caveat for hierarchical curves (Z, Gray, Hilbert): their per-cell δavg
// distribution is heavy-tailed — level-j boundary crossings have curve
// distance ~2^(jd) but probability ~2^(−j), so every bit level contributes
// equally to the mean. A uniform sample therefore underestimates Davg
// unless samples ≫ 2^k; at very large k prefer the exact closed forms in
// the bounds package (validated against exhaustive measurement at feasible
// sizes). The simple/snake curves have essentially constant δavg per
// interior cell, so sampling is accurate for them at any size — which is
// how the harness probes Theorem 3 at n = 2^60 (experiment ext-bign).
func SampledNNStretch(c curve.Curve, samples int, seed int64) (SampledNN, error) {
	u := c.Universe()
	if u.N() < 2 {
		return SampledNN{}, fmt.Errorf("core: NN stretch undefined for n=%d", u.N())
	}
	if samples < 2 {
		return SampledNN{}, fmt.Errorf("core: need at least 2 samples, got %d", samples)
	}
	rng := rand.New(rand.NewSource(seed))
	p := u.NewPoint()
	q := u.NewPoint()
	var sum, sumSq, maxSum float64
	for s := 0; s < samples; s++ {
		for i := range p {
			p[i] = uint32(rng.Int63n(int64(u.Side())))
		}
		// One deltaAt pass per sample yields both δavg and δmax (the old
		// DeltaAvgAt + DeltaMaxAt pair evaluated every neighbor twice); q is
		// hoisted scratch. Values and RNG stream are unchanged.
		cellSum, cellMax, deg := deltaAt(c, p, q)
		var v float64
		if deg > 0 {
			v = float64(cellSum) / float64(deg)
		}
		sum += v
		sumSq += v * v
		maxSum += float64(cellMax)
	}
	mean := sum / float64(samples)
	variance := (sumSq - sum*mean) / float64(samples-1)
	if variance < 0 {
		variance = 0
	}
	return SampledNN{
		DAvg:       mean,
		DAvgStdErr: math.Sqrt(variance / float64(samples)),
		DMax:       maxSum / float64(samples),
		Samples:    samples,
	}, nil
}

// ProfileBin is one distance stratum of a stretch profile.
type ProfileBin struct {
	Distance    uint64  // Manhattan distance r of the stratum
	MeanStretch float64 // mean Δπ/Δ over sampled pairs at distance r
	Pairs       int     // pairs sampled in this stratum
}

// StretchProfile estimates the mean stretch Δπ/Δ as a function of the
// Manhattan distance r between the pair, for r = 1, 2, 4, … up to the
// universe diameter. This addresses the final open question of the paper's
// §VI — proximity preservation "using a more general probabilistic model of
// input". The profile exposes a structural dichotomy: for the structured
// curves the stretch is approximately scale-invariant (every stratum is
// Θ(n^(1−1/d)), consistent with the paper's NN and all-pairs bounds
// differing only by constants), whereas for a random bijection Δπ is
// ~(n+1)/3 regardless of r, so its profile decays like 1/r.
//
// Pairs are sampled by picking a random cell and a random offset of
// Manhattan length r (rejection-sampled inside the universe).
func StretchProfile(c curve.Curve, samplesPerBin int, seed int64) ([]ProfileBin, error) {
	u := c.Universe()
	if u.N() < 2 {
		return nil, fmt.Errorf("core: profile undefined for n=%d", u.N())
	}
	if samplesPerBin < 1 {
		return nil, fmt.Errorf("core: need at least 1 sample per bin")
	}
	rng := rand.New(rand.NewSource(seed))
	var bins []ProfileBin
	p := u.NewPoint()
	q := u.NewPoint()
	for r := uint64(1); r <= u.MaxManhattan(); r *= 2 {
		var sum float64
		pairs := 0
		attempts := 0
		maxAttempts := samplesPerBin * 100
		for pairs < samplesPerBin && attempts < maxAttempts {
			attempts++
			for i := range p {
				p[i] = uint32(rng.Int63n(int64(u.Side())))
			}
			if !randomOffset(rng, u, p, q, r) {
				continue
			}
			sum += float64(curve.Dist(c, p, q)) / float64(r)
			pairs++
		}
		if pairs == 0 {
			continue
		}
		bins = append(bins, ProfileBin{Distance: r, MeanStretch: sum / float64(pairs), Pairs: pairs})
	}
	return bins, nil
}

// randomOffset writes into q a uniformly chosen cell at Manhattan distance
// exactly r from p, returning false when the sampled offset leaves the
// universe. The offset splits r across dimensions by a stars-and-bars draw
// and assigns each component a random sign.
func randomOffset(rng *rand.Rand, u *grid.Universe, p, q grid.Point, r uint64) bool {
	d := u.D()
	// Draw a random composition of r into d nonnegative parts.
	parts := make([]uint64, d)
	remaining := r
	for i := 0; i < d-1; i++ {
		// Binomial-ish split: uniform cut of the remaining mass.
		parts[i] = uint64(rng.Int63n(int64(remaining) + 1))
		remaining -= parts[i]
	}
	parts[d-1] = remaining
	rng.Shuffle(d, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	for i := 0; i < d; i++ {
		v := int64(p[i])
		if parts[i] > 0 && rng.Intn(2) == 0 {
			v -= int64(parts[i])
		} else {
			v += int64(parts[i])
		}
		if v < 0 || v >= int64(u.Side()) {
			return false
		}
		q[i] = uint32(v)
	}
	return true
}
