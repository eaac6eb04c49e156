package core

import (
	"fmt"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
)

// BenchmarkNNSweep compares the kernelized NN stretch sweep against the
// scalar path on the acceptance-bar universes and on stretch_sweep's own
// grids (d = 2, k = 11 and d = 3, k = 7), and times the row pass's other
// two readers, the torus sweep and Lambdas, there. Run with -benchtime and
// -cpuprofile to see where a sweep spends its time.
func BenchmarkNNSweep(b *testing.B) {
	curveOn := func(name string, d, k int) curve.Curve {
		c, err := curve.ByName(name, grid.MustNew(d, k), 1)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name string
		d, k int
	}{
		{"z", 2, 10}, {"z", 2, 11}, {"z", 3, 7},
		{"simple", 2, 10},
		{"gray", 2, 10},
		{"snake", 2, 10}, {"snake", 3, 7},
		{"hilbert", 2, 10}, {"hilbert", 2, 11}, {"hilbert", 3, 7},
	} {
		c := curveOn(tc.name, tc.d, tc.k)
		for _, side := range []struct {
			label string
			c     curve.Curve
		}{{"kernel", c}, {"scalar", curve.ScalarOnly(c)}} {
			b.Run(fmt.Sprintf("%s/d%dk%d/%s", tc.name, tc.d, tc.k, side.label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					NNStretchResult(side.c, 1)
				}
			})
		}
	}
	for _, name := range []string{"z", "hilbert"} {
		c := curveOn(name, 2, 11)
		b.Run(name+"/d2k11/torus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NNStretchTorusResult(c, 1)
			}
		})
		b.Run(name+"/d2k11/lambdas", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Lambdas(c, 1)
			}
		})
	}
}
