package codes

import (
	"fmt"
	"math/rand"
	"sort"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// EVENODD is the classic RAID-6 code of Blaum, Brady, Bruck and Menon
// (IEEE ToC 1995), which the paper lists among the symmetric-parity
// codes PPM's asymmetric targets are contrasted with. It is included as
// an additional XOR-only baseline: every parity-check coefficient is 0
// or 1, so decoding exercises the kernel's pure-XOR fast path.
//
// Geometry: p must be prime; the stripe has n = p + 2 disks and
// r = p - 1 rows. Disk p holds row parity, disk p+1 holds diagonal
// parity. With the adjuster ("EVENODD") diagonal S folded in, the
// diagonal parity equations become, over GF(2):
//
//	D_d = S ⊕ ⊕_{i+j ≡ d (mod p)} b(i, j)     0 ≤ d < p-1, j < p
//	S   = ⊕_{i+j ≡ p-1 (mod p)} b(i, j)
//
// As parity-check rows this folds S into each diagonal equation, giving
// rows that cover diagonal d plus the whole adjuster diagonal p-1.
type EVENODD struct {
	p      int
	field  gf.Field
	h      *matrix.Matrix
	parity []int
}

var _ Code = (*EVENODD)(nil)

// NewEVENODD constructs the EVENODD instance for prime p >= 3.
func NewEVENODD(p int) (*EVENODD, error) {
	// The size check first: isPrime runs in √p steps.
	if err := checkParityCheckSize("EVENODD", 2*(float64(p)-1), (float64(p)+2)*(float64(p)-1)); err != nil {
		return nil, err
	}
	if p < 3 || !isPrime(p) {
		return nil, fmt.Errorf("codes: EVENODD needs a prime p >= 3, got %d", p)
	}
	e := &EVENODD{p: p, field: gf.GF8}
	e.h = e.buildParityCheck()
	n := p + 2
	for i := 0; i < p-1; i++ {
		e.parity = append(e.parity, sectorIndex(n, i, p), sectorIndex(n, i, p+1))
	}
	sort.Ints(e.parity)
	if err := Validate(e); err != nil {
		return nil, err
	}
	return e, nil
}

func isPrime(v int) bool {
	if v < 2 {
		return false
	}
	for d := 2; d*d <= v; d++ {
		if v%d == 0 {
			return false
		}
	}
	return true
}

func (e *EVENODD) buildParityCheck() *matrix.Matrix {
	p := e.p
	n := p + 2
	r := p - 1
	h := matrix.New(e.field, 2*r, n*r)

	// Row-parity equations: row i of the stripe XORs to zero across
	// data disks 0..p-1 and the row-parity disk p.
	for i := 0; i < r; i++ {
		for j := 0; j < p; j++ {
			h.Set(i, sectorIndex(n, i, j), 1)
		}
		h.Set(i, sectorIndex(n, i, p), 1)
	}

	// Diagonal-parity equations with the adjuster folded in. The
	// imaginary row p-1 is all zeros, so cells with i == p-1 are
	// skipped. XOR (GF(2) addition) makes double-counted cells cancel,
	// which matrix entries over GF(2^8)'s {0,1} reproduce by toggling.
	for d := 0; d < r; d++ {
		row := r + d
		toggle := func(i, j int) {
			col := sectorIndex(n, i, j)
			h.Set(row, col, h.At(row, col)^1)
		}
		for j := 0; j < p; j++ {
			if i := (d - j + p) % p; i < r {
				toggle(i, j) // diagonal d
			}
			if i := (p - 1 - j + p) % p; i < r {
				toggle(i, j) // the adjuster diagonal S
			}
		}
		toggle(d, p+1)
	}
	return h
}

// Name reports the instance, e.g. "EVENODD(p=5)".
func (e *EVENODD) Name() string { return fmt.Sprintf("EVENODD(p=%d)", e.p) }

func (e *EVENODD) Field() gf.Field             { return e.field }
func (e *EVENODD) NumStrips() int              { return e.p + 2 }
func (e *EVENODD) NumRows() int                { return e.p - 1 }
func (e *EVENODD) ParityCheck() *matrix.Matrix { return e.h }
func (e *EVENODD) ParityPositions() []int      { return append([]int(nil), e.parity...) }
func (e *EVENODD) P() int                      { return e.p }

// WorstCaseScenario fails two random disks — the failure class EVENODD
// is designed for.
func (e *EVENODD) WorstCaseScenario(rng *rand.Rand) (Scenario, error) {
	n := e.p + 2
	disks := rng.Perm(n)[:2]
	sort.Ints(disks)
	var faulty []int
	for i := 0; i < e.p-1; i++ {
		for _, d := range disks {
			faulty = append(faulty, sectorIndex(n, i, d))
		}
	}
	sort.Ints(faulty)
	sc := Scenario{Faulty: faulty, FailedDisks: disks}
	if !Decodable(e, sc) {
		return Scenario{}, fmt.Errorf("codes: %s: disks %v not decodable (construction bug)", e.Name(), disks)
	}
	return sc, nil
}
