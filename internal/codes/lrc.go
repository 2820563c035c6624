package codes

import (
	"fmt"
	"math/rand"
	"sort"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// LRC is a (k, l, g) Local Reconstruction Code in the Windows Azure
// Storage style the paper cites: k data blocks split into l local
// groups, each protected by one local parity (plain XOR of its group),
// plus g global parities computed from all k data blocks with Cauchy
// coefficients. Blocks are whole strips here, so r == 1 and n == k+l+g.
//
// The asymmetry is exactly the paper's motivating example: local parity
// rows touch k/l + 1 columns while global rows touch k + 1, so the
// parity-check matrix partitions naturally — a single failure inside a
// group is an independent faulty block recoverable from its local row
// alone (the degraded-read fast path), and PPM decodes multiple such
// groups in parallel.
type LRC struct {
	k, l, g int
	groups  [][]int // data block indices per local group
	field   gf.Field
	h       *matrix.Matrix
	parity  []int
}

var _ Code = (*LRC)(nil)

// NewLRC constructs a (k, l, g) LRC. Groups are balanced: the first
// k%l groups get ceil(k/l) data blocks, the rest floor(k/l).
func NewLRC(k, l, g int) (*LRC, error) {
	f, err := gf.FieldFor(2 * (k + l + g))
	if err != nil {
		return nil, err
	}
	return NewLRCInField(k, l, g, f)
}

// NewLRCInField is NewLRC with an explicit field.
func NewLRCInField(k, l, g int, field gf.Field) (*LRC, error) {
	switch {
	case k < 2:
		return nil, fmt.Errorf("codes: LRC k=%d too small", k)
	case l < 1 || l > k:
		return nil, fmt.Errorf("codes: LRC l=%d out of range [1,%d]", l, k)
	case g < 0:
		return nil, fmt.Errorf("codes: LRC g=%d negative", g)
	}
	if err := checkParityCheckSize("LRC", float64(l)+float64(g), float64(k)+float64(l)+float64(g)); err != nil {
		return nil, err
	}
	if uint64(2*(k+l+g)) > field.Order() {
		return nil, fmt.Errorf("codes: LRC too large for GF(2^%d)", field.W())
	}
	lrc := &LRC{k: k, l: l, g: g, field: field}
	lrc.groups = balancedGroups(k, l)
	lrc.h = lrc.buildParityCheck()
	for p := k; p < k+l+g; p++ {
		lrc.parity = append(lrc.parity, p)
	}
	if err := Validate(lrc); err != nil {
		return nil, err
	}
	return lrc, nil
}

func balancedGroups(k, l int) [][]int {
	groups := make([][]int, l)
	next := 0
	for gi := 0; gi < l; gi++ {
		size := k / l
		if gi < k%l {
			size++
		}
		for b := 0; b < size; b++ {
			groups[gi] = append(groups[gi], next)
			next++
		}
	}
	return groups
}

// Block layout: columns 0..k-1 data, k..k+l-1 local parities (one per
// group in order), k+l..k+l+g-1 global parities.
func (lrc *LRC) buildParityCheck() *matrix.Matrix {
	n := lrc.k + lrc.l + lrc.g
	h := matrix.New(lrc.field, lrc.l+lrc.g, n)
	for gi, group := range lrc.groups {
		for _, b := range group {
			h.Set(gi, b, 1)
		}
		h.Set(gi, lrc.k+gi, 1)
	}
	for q := 0; q < lrc.g; q++ {
		row := lrc.l + q
		for b := 0; b < lrc.k; b++ {
			// Cauchy points x_q = q, y_b = g + b: disjoint, never zero.
			h.Set(row, b, lrc.field.Inv(uint32(q)^uint32(lrc.g+b)))
		}
		h.Set(row, lrc.k+lrc.l+q, 1)
	}
	return h
}

// Name reports the (k, l, g) parameterisation, e.g. "LRC(12,2,2)(w=8)".
func (lrc *LRC) Name() string {
	return fmt.Sprintf("LRC(%d,%d,%d)(w=%d)", lrc.k, lrc.l, lrc.g, lrc.field.W())
}

func (lrc *LRC) Field() gf.Field             { return lrc.field }
func (lrc *LRC) NumStrips() int              { return lrc.k + lrc.l + lrc.g }
func (lrc *LRC) NumRows() int                { return 1 }
func (lrc *LRC) ParityCheck() *matrix.Matrix { return lrc.h }
func (lrc *LRC) ParityPositions() []int      { return append([]int(nil), lrc.parity...) }
func (lrc *LRC) K() int                      { return lrc.k }
func (lrc *LRC) L() int                      { return lrc.l }
func (lrc *LRC) G() int                      { return lrc.g }

// Groups returns the data-block membership of each local group.
func (lrc *LRC) Groups() [][]int {
	out := make([][]int, len(lrc.groups))
	for i, grp := range lrc.groups {
		out[i] = append([]int(nil), grp...)
	}
	return out
}

// StorageCost returns n/k, the overhead metric Figure 11 sweeps.
func (lrc *LRC) StorageCost() float64 {
	return float64(lrc.k+lrc.l+lrc.g) / float64(lrc.k)
}

// DegradedReadScenario fails a single random data block — the transient
// unavailability event that motivates LRC (90% of data-center failure
// events, §I). The block is recoverable from its local group alone.
func (lrc *LRC) DegradedReadScenario(rng *rand.Rand) Scenario {
	return Scenario{Faulty: []int{rng.Intn(lrc.k)}}
}

// WorstCaseScenario fails one data block in every local group (each an
// independent faulty block, decoded in parallel by PPM) plus one more
// block in a random group, whose recovery needs the global parities —
// the deepest pattern that exercises both PPM phases. Requires g >= 1.
func (lrc *LRC) WorstCaseScenario(rng *rand.Rand) (Scenario, error) {
	if lrc.g < 1 {
		return Scenario{}, fmt.Errorf("codes: %s has no global parity; worst case undefined", lrc.Name())
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		faulty := make(map[int]bool)
		for _, group := range lrc.groups {
			faulty[group[rng.Intn(len(group))]] = true
		}
		// One extra failure on any still-healthy data block.
		var spare []int
		for b := 0; b < lrc.k; b++ {
			if !faulty[b] {
				spare = append(spare, b)
			}
		}
		if len(spare) == 0 {
			return Scenario{}, fmt.Errorf("codes: %s: k == l leaves no spare data block for the worst case", lrc.Name())
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
