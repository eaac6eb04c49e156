package curve

import (
	"sync"

	"repro/internal/bits"
	"repro/internal/grid"
)

// Table-driven Hilbert evaluation in the style of Hamilton & Rau-Chaplin's
// compact Hilbert indices: instead of Skilling's bit-serial rotate/reflect
// loop, encode one d-bit level per step through a precomputed state machine.
// A state is the signed bit-permutation (axis relabeling + reflections) the
// recursion applies inside the current orthant; enc[state<<d | tuple] yields
// the level's curve digit and the child state in one lookup.
//
// Rather than hard-coding the tables for the specific curve variant, the
// machine is derived empirically from the package's own scalar
// implementation: the base orthant order is probed at k=1, the per-orthant
// sub-transforms at k=2, and the self-similarity hypothesis (each
// sub-transform is a signed permutation, and transitions are k-independent)
// is verified by full enumeration against the scalar code at several k
// before the table is used. If any probe or verification step fails, the
// builder returns nil and every batch entry point falls back to the scalar
// loop — correctness never depends on the derivation succeeding.

// maxHilbertTableDim bounds the table machinery: 2^d-entry rows and
// potentially hundreds of states make the tables impractical past a few
// dimensions, and the sweeps only reach d ≤ 3 anyway.
const maxHilbertTableDim = 6

// maxHilbertStates caps the BFS over reachable states; the true count is
// far smaller (4 at d=2, 24 at d=3), so hitting the cap means the
// self-similarity hypothesis failed.
const maxHilbertStates = 1 << 12

// maxHilbertVerifyCells bounds the construction-time exhaustive
// verification sweep per k.
const maxHilbertVerifyCells = 1 << 16

// The tables are flat: the row of a state starts at state<<d, and an entry
// holds the next state in the same form, so e &^ dmask is the next row.
// Keys are k levels of d-bit groups, most significant level first; Hilbert
// encodes in IndexBatch.
type hilbertTable struct {
	d      int
	enc    []uint32  // enc[state<<d | tuple] = nextState<<d | digit
	dec    []uint32  // dec[state<<d | digit] = nextState<<d | tuple
	levels [65]uint8 // levels[b] = ⌈b/d⌉: the levels a b-bit key difference spans
}

// decode maps a Hilbert key back to the Morton key of its cell.
func (ht *hilbertTable) decode(key uint64, k int) uint64 {
	d := uint(ht.d)
	dmask := uint32(1)<<d - 1
	var mkey uint64
	row := uint32(0)
	for level := k - 1; level >= 0; level-- {
		e := ht.dec[row|uint32(key>>(uint(level)*d))&dmask]
		mkey |= uint64(e&dmask) << (uint(level) * d)
		row = e &^ dmask
	}
	return mkey
}

// signedPerm is a state of the machine: out bit a = in bit sig[a], xor
// flip bit a.
type signedPerm struct {
	sig  []uint8
	flip uint32
}

func (s signedPerm) apply(t uint32) uint32 {
	out := s.flip
	for a, b := range s.sig {
		out ^= ((t >> b) & 1) << uint(a)
	}
	return out
}

// compose returns c∘s (apply s first, then c):
// (c∘s)(t)_a = s(t)_{sig_c[a]} ^ flip_c[a].
func compose(c, s signedPerm) signedPerm {
	d := len(s.sig)
	sig := make([]uint8, d)
	var flip uint32
	for a := 0; a < d; a++ {
		b := c.sig[a]
		sig[a] = s.sig[b]
		flip |= (((s.flip >> b) & 1) ^ ((c.flip >> uint(a)) & 1)) << uint(a)
	}
	return signedPerm{sig: sig, flip: flip}
}

// key interns the state for the BFS map.
func (s signedPerm) key() string {
	b := make([]byte, len(s.sig)+4)
	copy(b, s.sig)
	for i := 0; i < 4; i++ {
		b[len(s.sig)+i] = byte(s.flip >> uint(8*i))
	}
	return string(b)
}

// asSignedPerm checks that the table f (of 2^d entries) is a signed bit
// permutation and returns it; ok is false otherwise.
func asSignedPerm(f []uint32, d int) (signedPerm, bool) {
	flip := f[0]
	sig := make([]uint8, d)
	var covered uint32
	for b := 0; b < d; b++ {
		v := f[1<<uint(b)] ^ flip
		if v == 0 || v&(v-1) != 0 {
			return signedPerm{}, false
		}
		a := uint8(0)
		for v>>1 != 0 {
			v >>= 1
			a++
		}
		if covered&(1<<a) != 0 {
			return signedPerm{}, false
		}
		covered |= 1 << a
		sig[a] = uint8(b)
	}
	s := signedPerm{sig: sig, flip: flip}
	for t := uint32(0); t < uint32(len(f)); t++ {
		if s.apply(t) != f[t] {
			return signedPerm{}, false
		}
	}
	return s, true
}

var hilbertTabCache sync.Map // d (int) -> *hilbertTable, nil when derivation failed

// hilbertTableFor returns the per-dimension state table, building and
// caching it on first use. A nil result means the derivation or its
// verification failed and callers must use the scalar path. Concurrent
// first calls may build the table twice; the contents are deterministic, so
// whichever store wins is equivalent.
func hilbertTableFor(d int) *hilbertTable {
	if v, ok := hilbertTabCache.Load(d); ok {
		tab, _ := v.(*hilbertTable)
		return tab
	}
	tab := buildHilbertTable(d)
	hilbertTabCache.Store(d, tab)
	return tab
}

func buildHilbertTable(d int) *hilbertTable {
	if d < 1 || d > maxHilbertTableDim {
		return nil
	}
	size := uint32(1) << uint(d)
	dmask := uint64(size - 1)

	// Probe the base orthant order at k=1: enc0[tuple] = digit, where tuple
	// bit d−1−i is coordinate i's bit (the Morton group layout).
	h1 := &Hilbert{u: grid.MustNew(d, 1)}
	enc0 := make([]uint32, size)
	dec0 := make([]uint32, size)
	seen := make([]bool, size)
	p := make(grid.Point, d)
	for tuple := uint32(0); tuple < size; tuple++ {
		for i := 0; i < d; i++ {
			p[i] = (tuple >> uint(d-1-i)) & 1
		}
		digit := h1.Index(p)
		if digit >= uint64(size) || seen[digit] {
			return nil
		}
		seen[digit] = true
		enc0[tuple] = uint32(digit)
		dec0[digit] = tuple
	}

	// Probe the per-orthant sub-transforms at k=2: with the identity state
	// at the top level, the low-level digits inside orthant T satisfy
	// digit0 = enc0[c_T(t)], so c_T = dec0 ∘ (t ↦ digit0).
	h2 := &Hilbert{u: grid.MustNew(d, 2)}
	children := make([]signedPerm, size)
	ctab := make([]uint32, size)
	for T := uint32(0); T < size; T++ {
		for t := uint32(0); t < size; t++ {
			for i := 0; i < d; i++ {
				sh := uint(d - 1 - i)
				p[i] = ((T>>sh)&1)<<1 | (t>>sh)&1
			}
			key := h2.Index(p)
			if uint32(key>>uint(d)) != enc0[T] {
				return nil
			}
			ctab[t] = dec0[key&dmask]
		}
		c, ok := asSignedPerm(ctab, d)
		if !ok {
			return nil
		}
		children[T] = c
	}

	// BFS over reachable states. State 0 is the identity; the transition on
	// actual tuple T from state s is: t' = s(T), digit = enc0[t'],
	// next = c_{t'} ∘ s.
	identity := signedPerm{sig: make([]uint8, d)}
	for i := range identity.sig {
		identity.sig[i] = uint8(i)
	}
	states := []signedPerm{identity}
	index := map[string]uint32{identity.key(): 0}
	var enc, dec []uint32
	for si := 0; si < len(states); si++ {
		s := states[si]
		encRow := make([]uint32, size)
		decRow := make([]uint32, size)
		for T := uint32(0); T < size; T++ {
			tp := s.apply(T)
			digit := enc0[tp]
			next := compose(children[tp], s)
			nk := next.key()
			ni, ok := index[nk]
			if !ok {
				ni = uint32(len(states))
				if ni >= maxHilbertStates {
					return nil
				}
				index[nk] = ni
				states = append(states, next)
			}
			encRow[T] = ni<<uint(d) | digit
			decRow[digit] = ni<<uint(d) | T
		}
		enc = append(enc, encRow...)
		dec = append(dec, decRow...)
	}

	// Verify the machine against the scalar implementation by full
	// enumeration at every small k — in particular k=3, the first depth at
	// which the composition rule (not just the probes) carries the result.
	tab := &hilbertTable{d: d, enc: enc, dec: dec}
	for b := range tab.levels {
		tab.levels[b] = uint8((b + d - 1) / d)
	}
	for k := 1; d*k <= bits.MaxKeyBits; k++ {
		u := grid.MustNew(d, k)
		if u.N() > maxHilbertVerifyCells {
			break
		}
		// One batch over every cell, so the walk reuse is verified too.
		h := &Hilbert{u: u}
		coords := make([]uint32, 0, int(u.N())*d)
		for lin := uint64(0); lin < u.N(); lin++ {
			u.FromLinear(lin, p)
			coords = append(coords, p...)
		}
		keys := make([]uint64, u.N())
		(&Hilbert{u: u, tab: tab}).IndexBatch(coords, keys)
		q := make(grid.Point, d)
		for lin, key := range keys {
			if key != h.Index(grid.Point(coords[lin*d:(lin+1)*d])) {
				return nil
			}
			h.Point(key, q)
			if tab.decode(key, k) != bits.Interleave(q, k) {
				return nil
			}
		}
	}
	return tab
}
