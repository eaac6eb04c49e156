package analysis

import (
	"fmt"

	"repro/internal/conformance"
)

// ExtConform runs the conformance engine as an experiment: every registered
// curve crossed with every stretch engine under the invariant, differential
// and metamorphic check layers (see the conformance package). The table
// aggregates the matrix per curve and layer; the experiment fails if any
// check instance fails, making the cross-engine agreement itself a
// reproducible deliverable.
func ExtConform(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "ext-conform",
		Title: "Conformance: cross-engine agreement for every curve",
		Caption: "Check instances per curve and layer across d ∈ {1,2,3}. Differential checks compare the " +
			"sequential oracle, parallel engine, torus engine, table shadow, Monte-Carlo samplers and closed " +
			"forms; metamorphic checks assert isometry invariance, refinement monotonicity and the paper's bounds. " +
			"A green experiment means the exact engines agree exactly (Davg/Dmax by equality) and the samplers " +
			"within their confidence bounds.",
		Columns: []string{"curve", "layer", "passed", "failed", "skipped"},
	}
	ccfg := conformance.Full()
	if cfg.Quick {
		ccfg = conformance.Quick()
	}
	ccfg.Seed = cfg.Seed
	if cfg.Workers > 0 {
		ccfg.Workers = []int{1, cfg.Workers}
	}
	rep, err := conformance.Run(ccfg)
	if err != nil {
		return nil, err
	}
	type key struct {
		curve string
		layer conformance.Layer
	}
	counts := map[key]*[3]int{}
	for _, res := range rep.Results {
		k := key{res.Curve, res.Layer}
		c := counts[k]
		if c == nil {
			c = &[3]int{}
			counts[k] = c
		}
		switch res.Status {
		case conformance.Pass:
			c[0]++
		case conformance.Fail:
			c[1]++
		case conformance.Skip:
			c[2]++
		}
	}
	layers := []conformance.Layer{conformance.Invariant, conformance.Differential, conformance.Metamorphic}
	for _, name := range rep.Curves() {
		for _, layer := range layers {
			c := counts[key{name, layer}]
			if c == nil {
				continue
			}
			t.AddRow(name, string(layer), fi(c[0]), fi(c[1]), fi(c[2]))
		}
	}
	if !rep.OK() {
		f := rep.Failures()[0]
		return t, fmt.Errorf("%d conformance failures; first: %s [%s] %s: %s",
			len(rep.Failures()), f.Case(), f.Layer, f.Check, f.Detail)
	}
	return t, nil
}
