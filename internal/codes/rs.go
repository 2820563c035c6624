package codes

import (
	"fmt"
	"math/rand"
	"sort"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// RS is the symmetric-parity Reed-Solomon baseline of Figure 8: an
// (n, k)-MDS code with m = n - k parity disks, applied row-wise to an
// n x r stripe. Its parity-check matrix is block-diagonal — every stripe
// row is an independent codeword with the same per-row structure
// [C | I_m], where C is a Cauchy matrix (every square sub-matrix of a
// Cauchy matrix is nonsingular, so the code is MDS by construction, the
// same guarantee Cauchy Reed-Solomon gives).
type RS struct {
	n, r, m int
	field   gf.Field
	h       *matrix.Matrix
	parity  []int
}

var _ Code = (*RS)(nil)

// NewRS constructs an (n, n-m) RS code over an automatically chosen
// field (n must fit the field's element count for the Cauchy points).
func NewRS(n, r, m int) (*RS, error) {
	f, err := gf.FieldFor(2 * n)
	if err != nil {
		return nil, err
	}
	return NewRSInField(n, r, m, f)
}

// NewRSInField is NewRS with an explicit field, used for the paper's
// RS w=8/16/32 comparison series.
func NewRSInField(n, r, m int, field gf.Field) (*RS, error) {
	switch {
	case n < 2 || r < 1:
		return nil, fmt.Errorf("codes: invalid RS geometry n=%d r=%d", n, r)
	case m < 1 || m >= n:
		return nil, fmt.Errorf("codes: RS m=%d out of range [1,%d)", m, n)
	case uint64(2*n) > field.Order():
		return nil, fmt.Errorf("codes: n=%d too large for Cauchy points in GF(2^%d)", n, field.W())
	}
	if err := checkParityCheckSize("RS", float64(m)*float64(r), float64(n)*float64(r)); err != nil {
		return nil, err
	}
	rs := &RS{n: n, r: r, m: m, field: field}
	rs.h = rs.buildParityCheck()
	for i := 0; i < r; i++ {
		for j := n - m; j < n; j++ {
			rs.parity = append(rs.parity, sectorIndex(n, i, j))
		}
	}
	sort.Ints(rs.parity)
	if err := Validate(rs); err != nil {
		return nil, err
	}
	return rs, nil
}

func (rs *RS) buildParityCheck() *matrix.Matrix {
	k := rs.n - rs.m
	h := matrix.New(rs.field, rs.m*rs.r, rs.n*rs.r)
	for i := 0; i < rs.r; i++ {
		for t := 0; t < rs.m; t++ {
			row := i*rs.m + t
			// Cauchy coefficients: x_t = t, y_j = m + j (disjoint sets).
			for j := 0; j < k; j++ {
				c := rs.field.Inv(uint32(t) ^ uint32(rs.m+j))
				h.Set(row, sectorIndex(rs.n, i, j), c)
			}
			h.Set(row, sectorIndex(rs.n, i, k+t), 1)
		}
	}
	return h
}

// Name reports the RS parameterisation, e.g. "RS(16,13)r16(w=8)".
func (rs *RS) Name() string {
	return fmt.Sprintf("RS(%d,%d)r%d(w=%d)", rs.n, rs.n-rs.m, rs.r, rs.field.W())
}

func (rs *RS) Field() gf.Field             { return rs.field }
func (rs *RS) NumStrips() int              { return rs.n }
func (rs *RS) NumRows() int                { return rs.r }
func (rs *RS) ParityCheck() *matrix.Matrix { return rs.h }
func (rs *RS) ParityPositions() []int      { return append([]int(nil), rs.parity...) }
func (rs *RS) M() int                      { return rs.m }

// WorstCaseScenario fails m random whole disks — the heaviest pattern an
// MDS code recovers, mirroring the paper's RS measurement.
func (rs *RS) WorstCaseScenario(rng *rand.Rand) (Scenario, error) {
	disks := rng.Perm(rs.n)[:rs.m]
	sort.Ints(disks)
	var faulty []int
	for i := 0; i < rs.r; i++ {
		for _, d := range disks {
			faulty = append(faulty, sectorIndex(rs.n, i, d))
		}
	}
	sort.Ints(faulty)
	sc := Scenario{Faulty: faulty, FailedDisks: disks}
	if !Decodable(rs, sc) {
		return Scenario{}, fmt.Errorf("codes: %s: MDS property violated for disks %v", rs.Name(), disks)
	}
	return sc, nil
}
