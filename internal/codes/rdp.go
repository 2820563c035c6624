package codes

import (
	"fmt"
	"math/rand"
	"sort"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// RDP is Row-Diagonal Parity (Corbett et al., FAST 2004), the other
// classic RAID-6 code the paper cites among symmetric-parity schemes.
// Like EVENODD it is XOR-only, so it exercises the kernel's {0,1}
// coefficient path; unlike EVENODD its diagonal parity covers the row
// parity disk, which removes the adjuster complication.
//
// Geometry for prime p: n = p + 1 disks (p - 1 data disks, disk p-1
// holds row parity, disk p holds diagonal parity) and r = p - 1 rows.
// Diagonal d (0 <= d < p-1) collects cells with i + j ≡ d (mod p) over
// disks 0..p-1; diagonal p-1 is the missing diagonal and is not stored.
type RDP struct {
	p      int
	field  gf.Field
	h      *matrix.Matrix
	parity []int
}

var _ Code = (*RDP)(nil)

// NewRDP constructs the RDP instance for prime p >= 3.
func NewRDP(p int) (*RDP, error) {
	// The size check first: isPrime runs in √p steps.
	if err := checkParityCheckSize("RDP", 2*(float64(p)-1), (float64(p)+1)*(float64(p)-1)); err != nil {
		return nil, err
	}
	if p < 3 || !isPrime(p) {
		return nil, fmt.Errorf("codes: RDP needs a prime p >= 3, got %d", p)
	}
	r := &RDP{p: p, field: gf.GF8}
	r.h = r.buildParityCheck()
	n := p + 1
	for i := 0; i < p-1; i++ {
		r.parity = append(r.parity, sectorIndex(n, i, p-1), sectorIndex(n, i, p))
	}
	sort.Ints(r.parity)
	if err := Validate(r); err != nil {
		return nil, err
	}
	return r, nil
}

func (c *RDP) buildParityCheck() *matrix.Matrix {
	p := c.p
	n := p + 1
	r := p - 1
	h := matrix.New(c.field, 2*r, n*r)

	// Row parity: disks 0..p-1 of each row XOR to zero (disk p-1 is the
	// row parity itself).
	for i := 0; i < r; i++ {
		for j := 0; j < p; j++ {
			h.Set(i, sectorIndex(n, i, j), 1)
		}
	}

	// Diagonal parity: diagonal d over disks 0..p-1 (row-parity disk
	// included), rows 0..p-2, plus the diagonal parity cell (d, p).
	for d := 0; d < r; d++ {
		row := r + d
		for j := 0; j < p; j++ {
			if i := (d - j + p) % p; i < r {
				h.Set(row, sectorIndex(n, i, j), 1)
			}
		}
		h.Set(row, sectorIndex(n, d, p), 1)
	}
	return h
}

// Name reports the instance, e.g. "RDP(p=5)".
func (c *RDP) Name() string { return fmt.Sprintf("RDP(p=%d)", c.p) }

func (c *RDP) Field() gf.Field             { return c.field }
func (c *RDP) NumStrips() int              { return c.p + 1 }
func (c *RDP) NumRows() int                { return c.p - 1 }
func (c *RDP) ParityCheck() *matrix.Matrix { return c.h }
func (c *RDP) ParityPositions() []int      { return append([]int(nil), c.parity...) }
func (c *RDP) P() int                      { return c.p }

// WorstCaseScenario fails two random disks.
func (c *RDP) WorstCaseScenario(rng *rand.Rand) (Scenario, error) {
	n := c.p + 1
	disks := rng.Perm(n)[:2]
	sort.Ints(disks)
	var faulty []int
	for i := 0; i < c.p-1; i++ {
		for _, d := range disks {
			faulty = append(faulty, sectorIndex(n, i, d))
		}
	}
	sort.Ints(faulty)
	sc := Scenario{Faulty: faulty, FailedDisks: disks}
	if !Decodable(c, sc) {
		return Scenario{}, fmt.Errorf("codes: %s: disks %v not decodable (construction bug)", c.Name(), disks)
	}
	return sc, nil
}
