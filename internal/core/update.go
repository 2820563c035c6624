package core

import (
	"crypto/subtle"
	"fmt"
	"sync"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Updater implements the small-write path (extension beyond the paper):
// when one data sector changes, only the parity sectors whose encoding
// equations involve it need touching. From the encode plan's generator
// G (parity = G * data, the MatrixFirst product of the encoding
// scenario), an update of data sector j is
//
//	parity_i ^= G[i][j] * (old_j XOR new_j)   for every i with G[i][j] != 0
//
// which costs one mult_XORs per nonzero of G's column j — for LRC that
// is the sector's local parity plus the g globals; for SD the m disk
// parities of its stripe row plus the s sector parities. A full
// re-encode would cost u(G).
type Updater struct {
	code   codes.Code
	field  gf.Field
	parity []int // G's row order (global sector indices)
	data   []int // G's column order (global sector indices)
	dataAt map[int]int
	// column j of G, compiled: the multipliers to apply to each parity.
	columns [][]updateTerm
}

type updateTerm struct {
	parityRow int
	mult      gf.Multiplier
}

// NewUpdater derives and compiles the generator for the code.
func NewUpdater(c codes.Code) (*Updater, error) {
	sub, err := buildWholeSubDecode(c, codes.EncodingScenario(c), true)
	if err != nil {
		return nil, fmt.Errorf("core: deriving generator: %w", err)
	}
	u := &Updater{
		code:   c,
		field:  c.Field(),
		parity: sub.FaultyCols,
		data:   sub.SurvivorCols,
		dataAt: make(map[int]int, len(sub.SurvivorCols)),
	}
	for j, col := range u.data {
		u.dataAt[col] = j
	}
	g := sub.G
	u.columns = make([][]updateTerm, len(u.data))
	for j := range u.data {
		for i := 0; i < g.Rows(); i++ {
			if a := g.At(i, j); a != 0 {
				u.columns[j] = append(u.columns[j], updateTerm{
					parityRow: i,
					mult:      gf.MultiplierFor(u.field, a),
				})
			}
		}
	}
	return u, nil
}

// UpdateCost returns the number of mult_XORs an update of the given
// data sector performs (the nonzero count of G's column).
func (u *Updater) UpdateCost(dataIdx int) (int, error) {
	j, ok := u.dataAt[dataIdx]
	if !ok {
		return 0, fmt.Errorf("core: sector %d is not a data sector", dataIdx)
	}
	return len(u.columns[j]), nil
}

// UpdateTerm is one parity patch of a delta update, exported for the
// symbolic plan verifier: updating data sector j by delta applies
// parity[Parity] ^= Coeff * delta.
type UpdateTerm struct {
	// Parity is the global sector index of the patched parity.
	Parity int
	// Coeff is the GF coefficient the delta is multiplied by.
	Coeff uint32
}

// DataSectors returns the data sector indices the updater accepts, in
// G's column order. The returned slice is a copy.
func (u *Updater) DataSectors() []int { return append([]int(nil), u.data...) }

// Terms returns the compiled delta-update column for the given data
// sector: the (parity sector, coefficient) pairs UpdateRange applies.
// The verifier proves H · (e_j + Σ Coeff·e_Parity) = 0 from these —
// i.e. that a delta-patched stripe stays a codeword.
func (u *Updater) Terms(dataIdx int) ([]UpdateTerm, error) {
	j, ok := u.dataAt[dataIdx]
	if !ok {
		return nil, fmt.Errorf("core: sector %d is not a data sector", dataIdx)
	}
	terms := make([]UpdateTerm, len(u.columns[j]))
	for i, t := range u.columns[j] {
		terms[i] = UpdateTerm{Parity: u.parity[t.parityRow], Coeff: t.mult.Coefficient()}
	}
	return terms, nil
}

// deltaPool recycles the old⊕new scratch region, so the repeated
// small-write path — thousands of strip overwrites against the same
// code — allocates nothing per update.
var deltaPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// getDelta takes an n-byte delta scratch from the pool; putDelta
// returns it. They stay outside UpdateRange's //ppm:hotpath region:
// hotalloc reports Put's argument as boxed into an interface, though a
// pointer boxes without allocating.
func getDelta(n int) *[]byte {
	bp := deltaPool.Get().(*[]byte)
	if cap(*bp) < n {
		//ppm:allow(hotalloc) scratch growth: amortised across pooled reuse
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putDelta(bp *[]byte) { deltaPool.Put(bp) }

// Update overwrites data sector dataIdx of an encoded stripe with
// newContent and patches every affected parity sector in place, leaving
// the stripe a valid codeword. newContent must have the stripe's sector
// size.
func (u *Updater) Update(st *stripe.Stripe, dataIdx int, newContent []byte, stats *kernel.Stats) error {
	return u.UpdateRange(st, dataIdx, newContent, 0, st.SectorSize(), stats)
}

// UpdateRange patches only the [lo, hi) byte sub-range of data sector
// dataIdx: newContent holds the hi-lo replacement bytes, and the same
// sub-range of every affected parity sector is delta-updated. lo and
// hi must be multiples of the field word size. Allocation-free at
// steady state (the delta scratch circulates through a pool).
//
//ppm:hotpath
func (u *Updater) UpdateRange(st *stripe.Stripe, dataIdx int, newContent []byte, lo, hi int, stats *kernel.Stats) error {
	if st.N() != u.code.NumStrips() || st.R() != u.code.NumRows() {
		//ppm:allow(hotalloc) failure path: a rejected call allocates its error once
		return fmt.Errorf("core: stripe %dx%d does not match code %s", st.N(), st.R(), u.code.Name())
	}
	wb := u.field.WordBytes()
	if lo < 0 || hi > st.SectorSize() || lo >= hi {
		//ppm:allow(hotalloc) failure path: a rejected call allocates its error once
		return fmt.Errorf("core: byte range [%d,%d) outside sector size %d", lo, hi, st.SectorSize())
	}
	if lo%wb != 0 || hi%wb != 0 {
		//ppm:allow(hotalloc) failure path: a rejected call allocates its error once
		return fmt.Errorf("core: byte range [%d,%d) not aligned to the %d-byte GF word", lo, hi, wb)
	}
	if len(newContent) != hi-lo {
		//ppm:allow(hotalloc) failure path: a rejected call allocates its error once
		return fmt.Errorf("core: new content is %d bytes, range [%d,%d) needs %d", len(newContent), lo, hi, hi-lo)
	}
	j, ok := u.dataAt[dataIdx]
	if !ok {
		//ppm:allow(hotalloc) failure path: a rejected call allocates its error once
		return fmt.Errorf("core: sector %d is not a data sector", dataIdx)
	}

	old := st.Sector(dataIdx)[lo:hi]
	bp := getDelta(len(old))
	delta := *bp
	subtle.XORBytes(delta, old, newContent)
	var ops int64
	for _, term := range u.columns[j] {
		term.mult.MultXOR(st.Sector(u.parity[term.parityRow])[lo:hi], delta)
		ops++
	}
	copy(old, newContent)
	putDelta(bp)
	stats.AddMultXORs(ops)
	return nil
}
