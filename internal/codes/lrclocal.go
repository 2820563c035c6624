package codes

import (
	"fmt"
	"math/rand"
	"sort"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// LRCLocality is an LRC with (r, δ) locality (Prakash et al.): each of
// the l local groups carries δ-1 local parities forming a local MDS
// code, plus g global parities over all data. With δ = 2 it reduces to
// the plain LRC; with δ > 2 a group can lose up to δ-1 blocks and still
// repair locally.
//
// For PPM this family is the natural showcase of the log table's
// multi-row group rule (§III-A): a group with f <= δ-1 failures has
// exactly its δ-1 local rows sharing l_i, and f of them are extracted
// as an independent sub-matrix with f > 1 — the case the SD disk-parity
// rows exercise only when m > 1.
type LRCLocality struct {
	k, l, delta, g int
	groups         [][]int
	field          gf.Field
	h              *matrix.Matrix
	parity         []int
}

var _ Code = (*LRCLocality)(nil)

// NewLRCLocality constructs a (k, l, δ, g) locality LRC. Layout:
// columns 0..k-1 data, then (δ-1) local parities per group in group
// order, then g global parities.
func NewLRCLocality(k, l, delta, g int) (*LRCLocality, error) {
	switch {
	case k < 2:
		return nil, fmt.Errorf("codes: locality LRC k=%d too small", k)
	case l < 1 || l > k:
		return nil, fmt.Errorf("codes: locality LRC l=%d out of range [1,%d]", l, k)
	case delta < 2:
		return nil, fmt.Errorf("codes: locality δ=%d must be >= 2", delta)
	case g < 0:
		return nil, fmt.Errorf("codes: locality LRC g=%d negative", g)
	}
	local := float64(l) * float64(delta-1)
	if err := checkParityCheckSize("locality LRC", local+float64(g), float64(k)+local+float64(g)); err != nil {
		return nil, err
	}
	n := k + l*(delta-1) + g
	field, err := gf.FieldFor(2 * n)
	if err != nil {
		return nil, err
	}
	lrc := &LRCLocality{k: k, l: l, delta: delta, g: g, field: field}
	lrc.groups = balancedGroups(k, l)
	for _, grp := range lrc.groups {
		if len(grp) < delta-1 {
			return nil, fmt.Errorf("codes: group of %d blocks cannot carry %d local parities", len(grp), delta-1)
		}
	}
	lrc.h = lrc.buildParityCheck()
	for p := k; p < n; p++ {
		lrc.parity = append(lrc.parity, p)
	}
	if err := Validate(lrc); err != nil {
		return nil, err
	}
	return lrc, nil
}

func (lrc *LRCLocality) buildParityCheck() *matrix.Matrix {
	n := lrc.NumStrips()
	rows := lrc.l*(lrc.delta-1) + lrc.g
	h := matrix.New(lrc.field, rows, n)

	// Local MDS rows: group gi, parity t. Cauchy points x_t = t,
	// y_pos = (δ-1) + pos keep the sets disjoint within a group.
	row := 0
	for gi, group := range lrc.groups {
		for t := 0; t < lrc.delta-1; t++ {
			for pos, b := range group {
				h.Set(row, b, lrc.field.Inv(uint32(t)^uint32(lrc.delta-1+pos)))
			}
			h.Set(row, lrc.k+gi*(lrc.delta-1)+t, 1)
			row++
		}
	}
	// Global rows over all data blocks.
	for q := 0; q < lrc.g; q++ {
		for b := 0; b < lrc.k; b++ {
			h.Set(row, b, lrc.field.Inv(uint32(lrc.delta-1+lrc.k+q)^uint32(b)))
		}
		h.Set(row, lrc.k+lrc.l*(lrc.delta-1)+q, 1)
		row++
	}
	return h
}

// Name reports the parameterisation, e.g. "LRC-loc(12,3,δ3,2)(w=8)".
func (lrc *LRCLocality) Name() string {
	return fmt.Sprintf("LRC-loc(%d,%d,δ%d,%d)(w=%d)", lrc.k, lrc.l, lrc.delta, lrc.g, lrc.field.W())
}

func (lrc *LRCLocality) Field() gf.Field { return lrc.field }
func (lrc *LRCLocality) NumStrips() int {
	return lrc.k + lrc.l*(lrc.delta-1) + lrc.g
}
func (lrc *LRCLocality) NumRows() int                { return 1 }
func (lrc *LRCLocality) ParityCheck() *matrix.Matrix { return lrc.h }
func (lrc *LRCLocality) ParityPositions() []int      { return append([]int(nil), lrc.parity...) }
func (lrc *LRCLocality) K() int                      { return lrc.k }
func (lrc *LRCLocality) L() int                      { return lrc.l }
func (lrc *LRCLocality) Delta() int                  { return lrc.delta }
func (lrc *LRCLocality) G() int                      { return lrc.g }

// Groups returns the data-block membership of each local group.
func (lrc *LRCLocality) Groups() [][]int {
	out := make([][]int, len(lrc.groups))
	for i, grp := range lrc.groups {
		out[i] = append([]int(nil), grp...)
	}
	return out
}

// WorstCaseScenario fails δ-1 data blocks in every local group (each
// group is then an independent f = δ-1 sub-matrix for PPM) plus one
// extra block in a random group, which needs the globals.
func (lrc *LRCLocality) WorstCaseScenario(rng *rand.Rand) (Scenario, error) {
	if lrc.g < 1 {
		return Scenario{}, fmt.Errorf("codes: %s has no global parity; worst case undefined", lrc.Name())
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		faulty := make(map[int]bool)
		for _, group := range lrc.groups {
			perm := rng.Perm(len(group))
			for i := 0; i < lrc.delta-1; i++ {
				faulty[group[perm[i]]] = true
			}
		}
		var spare []int
		for b := 0; b < lrc.k; b++ {
			if !faulty[b] {
				spare = append(spare, b)
			}
		}
		if len(spare) == 0 {
			return Scenario{}, fmt.Errorf("codes: %s has no spare data block for the worst case", lrc.Name())
		}
		faulty[spare[rng.Intn(len(spare))]] = true
		all := make([]int, 0, len(faulty))
		for idx := range faulty {
			all = append(all, idx)
		}
		sort.Ints(all)
		sc := Scenario{Faulty: all}
		if Decodable(lrc, sc) {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("codes: %s: no decodable worst-case pattern found", lrc.Name())
}

// LocalScenario fails exactly f blocks inside one random group —
// recoverable purely locally when f <= δ-1.
func (lrc *LRCLocality) LocalScenario(rng *rand.Rand, f int) (Scenario, error) {
	if f < 1 || f > lrc.delta-1 {
		return Scenario{}, fmt.Errorf("codes: local scenario f=%d out of [1,%d]", f, lrc.delta-1)
	}
	group := lrc.groups[rng.Intn(lrc.l)]
	if f > len(group) {
		return Scenario{}, fmt.Errorf("codes: group too small for f=%d", f)
	}
	perm := rng.Perm(len(group))
	var faulty []int
	for i := 0; i < f; i++ {
		faulty = append(faulty, group[perm[i]])
	}
	sort.Ints(faulty)
	return Scenario{Faulty: faulty}, nil
}
