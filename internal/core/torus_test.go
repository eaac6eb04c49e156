package core

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/curve"
	"repro/internal/grid"
)

// bruteTorusDAvg recomputes the periodic Davg with explicit wrap handling.
func bruteTorusDAvg(c curve.Curve) float64 {
	u := c.Universe()
	side := int64(u.Side())
	var total float64
	p := u.NewPoint()
	q := u.NewPoint()
	for lin := uint64(0); lin < u.N(); lin++ {
		u.FromLinear(lin, p)
		var sum uint64
		deg := 0
		seen := map[string]bool{}
		copy(q, p)
		for dim := 0; dim < u.D(); dim++ {
			for _, off := range []int64{-1, 1} {
				v := (int64(p[dim]) + off + side) % side
				q[dim] = uint32(v)
				if q[dim] == p[dim] {
					q[dim] = p[dim]
					continue
				}
				key := q.String()
				if seen[key] {
					q[dim] = p[dim]
					continue
				}
				seen[key] = true
				sum += curve.Dist(c, p, q)
				deg++
				q[dim] = p[dim]
			}
		}
		if deg > 0 {
			total += float64(sum) / float64(deg)
		}
	}
	return total / float64(u.N())
}

func TestTorusMatchesBrute(t *testing.T) {
	for _, dk := range [][2]int{{1, 3}, {2, 3}, {3, 2}, {2, 1}} {
		u := grid.MustNew(dk[0], dk[1])
		for _, c := range testCurves(t, u) {
			avg, max := NNStretchTorus(c, 2)
			if want := bruteTorusDAvg(c); math.Abs(avg-want) > 1e-9 {
				t.Errorf("%s on %v: torus Davg %v, brute %v", c.Name(), u, avg, want)
			}
			if max < avg {
				t.Errorf("%s on %v: torus Dmax %v < Davg %v", c.Name(), u, max, avg)
			}
		}
	}
}

func TestTorusExceedsOpenGridStretch(t *testing.T) {
	// Wrap pairs only add long connections, so for the key-ordered curves
	// the periodic Davg is at least the open-grid Davg.
	u := grid.MustNew(2, 5)
	for _, name := range []string{"z", "simple", "snake", "hilbert", "gray"} {
		c, err := curve.ByName(name, u, 1)
		if err != nil {
			t.Fatal(err)
		}
		open := DAvg(c, 2)
		torus, _ := NNStretchTorus(c, 2)
		if torus < open-1e-9 {
			t.Errorf("%s: torus Davg %v below open %v", name, torus, open)
		}
		// Theorem 1 (proved for the open grid) holds a fortiori.
		if lb := bounds.NNAvgLowerBound(2, 5); torus < lb {
			t.Errorf("%s: torus Davg %v below open-grid bound %v", name, torus, lb)
		}
	}
}

func TestTorusSameAsymptoticOrder(t *testing.T) {
	// The periodic penalty is a constant factor: torus/open stays bounded
	// as k grows for the Z curve.
	var ratios []float64
	for _, k := range []int{4, 6, 8} {
		u := grid.MustNew(2, k)
		z := curve.NewZ(u)
		open := DAvg(z, 2)
		torus, _ := NNStretchTorus(z, 2)
		ratios = append(ratios, torus/open)
	}
	for _, r := range ratios {
		if r < 1 || r > 6 {
			t.Fatalf("torus/open ratios out of regime: %v", ratios)
		}
	}
	if math.Abs(ratios[2]-ratios[1]) > 0.5 {
		t.Fatalf("torus/open ratio not stabilizing: %v", ratios)
	}
}

func TestTorusSingleCell(t *testing.T) {
	u := grid.MustNew(2, 0)
	avg, max := NNStretchTorus(curve.NewZ(u), 1)
	if avg != 0 || max != 0 {
		t.Fatal("single-cell torus stretch nonzero")
	}
}
