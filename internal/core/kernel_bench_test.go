package core

import (
	"fmt"
	"testing"

	"repro/internal/curve"
	"repro/internal/grid"
)

// BenchmarkNNSweep compares the kernelized NN stretch sweep against the
// scalar path on the acceptance-bar universes. Run with -benchtime and
// -cpuprofile to see where a sweep spends its time.
func BenchmarkNNSweep(b *testing.B) {
	for _, tc := range []struct {
		name string
		d, k int
	}{
		{"z", 2, 10}, {"z", 3, 7},
		{"simple", 2, 10},
		{"gray", 2, 10},
		{"snake", 2, 10}, {"snake", 3, 7},
		{"hilbert", 2, 10}, {"hilbert", 3, 7},
	} {
		u := grid.MustNew(tc.d, tc.k)
		c, err := curve.ByName(tc.name, u, 1)
		if err != nil {
			b.Fatal(err)
		}
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
}
