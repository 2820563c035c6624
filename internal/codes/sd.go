package codes

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// SD is a Sector-Disk code instance SD^{m,s}_{n,r}(w | a_0..a_{m+s-1})
// (Plank et al., FAST'13), the paper's primary evaluation target. The
// stripe has n disks and r rows; the last m disks are coding disks and
// an additional s sectors (the last s data-region sectors in row-major
// order) are coding sectors, so the code tolerates any m full-disk
// failures plus s additional sector failures anywhere.
//
// The parity-check matrix follows the construction the paper's worked
// example SD^{1,1}_{4,4}(8|1,2) pins down (Figure 2):
//
//	disk-parity row i*m + t:   H[i*m+t][i*n+j] = a_t^(i*n+j),  0 <= j < n
//	sector row   m*r + q:      H[m*r+q][c]     = a_(m+q)^c,    0 <= c < n*r
//
// With a_0 = 1 the first disk-parity row of each stripe row is all ones
// and with a_1 = 2 the sector row is 2^0 .. 2^(nr-1), matching the
// figure exactly.
type SD struct {
	n, r, m, s int
	coeffs     []uint32
	field      gf.Field
	h          *matrix.Matrix
	parity     []int
}

var _ Code = (*SD)(nil)

// NewSD constructs an SD instance, picking the word size automatically
// (the smallest w with n*r <= 2^w - 1, the paper's field-switching rule)
// and searching for coding coefficients that make the instance both
// encodable and decodable on a battery of worst-case scenarios.
func NewSD(n, r, m, s int) (*SD, error) {
	if err := checkSDParams(n, r, m, s); err != nil {
		return nil, err
	}
	f, err := gf.FieldFor(n * r)
	if err != nil {
		return nil, err
	}
	return NewSDInField(n, r, m, s, f)
}

// NewSDInField is NewSD with an explicit field, used to reproduce the
// paper's per-field RS/SD comparisons.
func NewSDInField(n, r, m, s int, field gf.Field) (*SD, error) {
	coeffs, err := searchSDCoefficients(n, r, m, s, field)
	if err != nil {
		return nil, err
	}
	return NewSDWithCoefficients(n, r, m, s, field, coeffs)
}

// NewSDWithCoefficients constructs the instance from explicit coding
// coefficients a_0..a_{m+s-1}, e.g. the published SD^{2,2}_{6,4}
// coefficients (1, 42, 26, 61).
func NewSDWithCoefficients(n, r, m, s int, field gf.Field, coeffs []uint32) (*SD, error) {
	if err := checkSDParams(n, r, m, s); err != nil {
		return nil, err
	}
	if len(coeffs) != m+s {
		return nil, fmt.Errorf("codes: SD needs %d coefficients, got %d", m+s, len(coeffs))
	}
	if uint64(n*r) > field.Order()-1 {
		return nil, fmt.Errorf("codes: n*r = %d exceeds GF(2^%d) nonzero elements; powers would repeat", n*r, field.W())
	}
	for i, a := range coeffs {
		if a == 0 || uint64(a) >= field.Order() {
			return nil, fmt.Errorf("codes: coefficient a_%d = %d outside GF(2^%d)*", i, a, field.W())
		}
	}
	sd := &SD{
		n: n, r: r, m: m, s: s,
		coeffs: append([]uint32(nil), coeffs...),
		field:  field,
	}
	sd.h = sd.buildParityCheck()
	sd.parity = sd.buildParityPositions()
	if err := Validate(sd); err != nil {
		return nil, err
	}
	return sd, nil
}

// checkSDParams validates an SD geometry. The size check comes before
// any int product of the arguments: past it, n*r fits the entry bound.
func checkSDParams(n, r, m, s int) error {
	switch {
	case n < 2 || r < 1:
		return fmt.Errorf("codes: invalid SD geometry n=%d r=%d", n, r)
	case m < 0 || m >= n:
		return fmt.Errorf("codes: SD m=%d out of range [0,%d)", m, n)
	case s < 0:
		return fmt.Errorf("codes: SD s=%d out of range", s)
	case m == 0 && s == 0:
		return fmt.Errorf("codes: SD with no redundancy")
	}
	if err := checkParityCheckSize("SD", float64(m)*float64(r)+float64(s), float64(n)*float64(r)); err != nil {
		return err
	}
	if s > (n-m)*r {
		return fmt.Errorf("codes: SD s=%d out of range", s)
	}
	return nil
}

func (sd *SD) buildParityCheck() *matrix.Matrix {
	h := matrix.New(sd.field, sd.m*sd.r+sd.s, sd.n*sd.r)
	// Disk-parity rows.
	for i := 0; i < sd.r; i++ {
		for t := 0; t < sd.m; t++ {
			row := i*sd.m + t
			for j := 0; j < sd.n; j++ {
				col := sectorIndex(sd.n, i, j)
				h.Set(row, col, sd.field.Exp(sd.coeffs[t], col))
			}
		}
	}
	// Sector rows span the whole stripe.
	for q := 0; q < sd.s; q++ {
		row := sd.m*sd.r + q
		for c := 0; c < sd.n*sd.r; c++ {
			h.Set(row, c, sd.field.Exp(sd.coeffs[sd.m+q], c))
		}
	}
	return h
}

// buildParityPositions marks all sectors on the last m disks plus the
// last s data-region sectors in row-major order (Figure 1(b): the s
// coding sectors sit at the bottom of the last data disk).
func (sd *SD) buildParityPositions() []int {
	var parity []int
	for i := 0; i < sd.r; i++ {
		for j := sd.n - sd.m; j < sd.n; j++ {
			parity = append(parity, sectorIndex(sd.n, i, j))
		}
	}
	// Walk the data region backwards for the s coding sectors.
	remaining := sd.s
	for i := sd.r - 1; i >= 0 && remaining > 0; i-- {
		for j := sd.n - sd.m - 1; j >= 0 && remaining > 0; j-- {
			parity = append(parity, sectorIndex(sd.n, i, j))
			remaining--
		}
	}
	sort.Ints(parity)
	return parity
}

// Name renders the paper's parameterisation, e.g. "SD^{2,2}_{6,4}(8|1,42,26,61)".
func (sd *SD) Name() string {
	parts := make([]string, len(sd.coeffs))
	for i, a := range sd.coeffs {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return fmt.Sprintf("SD^{%d,%d}_{%d,%d}(%d|%s)", sd.m, sd.s, sd.n, sd.r, sd.field.W(), strings.Join(parts, ","))
}

func (sd *SD) Field() gf.Field             { return sd.field }
func (sd *SD) NumStrips() int              { return sd.n }
func (sd *SD) NumRows() int                { return sd.r }
func (sd *SD) ParityCheck() *matrix.Matrix { return sd.h }
func (sd *SD) ParityPositions() []int      { return append([]int(nil), sd.parity...) }
func (sd *SD) M() int                      { return sd.m }
func (sd *SD) S() int                      { return sd.s }
func (sd *SD) Coefficients() []uint32      { return append([]uint32(nil), sd.coeffs...) }

// WorstCaseScenario generates the paper's evaluation workload: exactly m
// whole-disk failures plus s additional sector failures confined to z
// distinct rows on the surviving disks (§IV: "we only test the worst
// case"). The scenario is drawn with the supplied RNG; patterns whose F
// sub-matrix happens to be singular are rejected and redrawn, matching
// how an operator would treat an unrecoverable pattern report.
func (sd *SD) WorstCaseScenario(rng *rand.Rand, z int) (Scenario, error) {
	if z < 1 || z > sd.s {
		if !(sd.s == 0 && z == 0) {
			return Scenario{}, fmt.Errorf("codes: z=%d out of range [1,%d]", z, sd.s)
		}
	}
	if z > sd.r {
		return Scenario{}, fmt.Errorf("codes: z=%d exceeds r=%d", z, sd.r)
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sc, err := sd.drawWorstCase(rng, z)
		if err != nil {
			return Scenario{}, err
		}
		if Decodable(sd, sc) {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("codes: %s: no decodable worst-case scenario found in %d draws (coefficients unsuitable)", sd.Name(), maxAttempts)
}

func (sd *SD) drawWorstCase(rng *rand.Rand, z int) (Scenario, error) {
	disks := rng.Perm(sd.n)[:sd.m]
	sort.Ints(disks)
	failedDisk := make(map[int]bool, sd.m)
	for _, d := range disks {
		failedDisk[d] = true
	}

	faulty := make(map[int]bool)
	for _, d := range disks {
		for i := 0; i < sd.r; i++ {
			faulty[sectorIndex(sd.n, i, d)] = true
		}
	}

	// Place the s sector failures on surviving disks within z rows,
	// at least one per chosen row.
	if sd.s > 0 {
		survivorsPerRow := sd.n - sd.m
		if sd.s > z*survivorsPerRow {
			return Scenario{}, fmt.Errorf("codes: cannot place %d sector failures in %d rows with %d survivors per row", sd.s, z, survivorsPerRow)
		}
		rows := rng.Perm(sd.r)[:z]
		var survivingDisks []int
		for j := 0; j < sd.n; j++ {
			if !failedDisk[j] {
				survivingDisks = append(survivingDisks, j)
			}
		}
		placed := 0
		// One failure in each selected row first, then spread the rest.
		for _, row := range rows {
			d := survivingDisks[rng.Intn(len(survivingDisks))]
			faulty[sectorIndex(sd.n, row, d)] = true
			placed++
		}
		for placed < sd.s {
			row := rows[rng.Intn(len(rows))]
			d := survivingDisks[rng.Intn(len(survivingDisks))]
			idx := sectorIndex(sd.n, row, d)
			if faulty[idx] {
				continue
			}
			faulty[idx] = true
			placed++
		}
	}

	all := make([]int, 0, len(faulty))
	for idx := range faulty {
		all = append(all, idx)
	}
	sort.Ints(all)
	return Scenario{Faulty: all, FailedDisks: disks, Z: z}, nil
}

// searchSDCoefficients finds a coefficient tuple whose instance encodes
// and survives a battery of random worst-case decodes. The candidate
// sequence is deterministic (a_0 = 1, then odd seeds) so a given
// geometry always resolves to the same instance — the published SD
// coefficient tables were found by exactly this kind of search.
func searchSDCoefficients(n, r, m, s int, field gf.Field) ([]uint32, error) {
	if err := checkSDParams(n, r, m, s); err != nil {
		return nil, err
	}
	mask := uint32((field.Order() - 1) & 0xFFFFFFFF)
	const candidates = 64
	for cand := 0; cand < candidates; cand++ {
		coeffs := candidateCoefficients(cand, m+s, mask)
		sd, err := NewSDWithCoefficients(n, r, m, s, field, coeffs)
		if err != nil {
			continue // encode-singular; try the next tuple
		}
		if sdSurvivesBattery(sd) {
			return coeffs, nil
		}
	}
	return nil, fmt.Errorf("codes: no SD coefficients found for n=%d r=%d m=%d s=%d over GF(2^%d)", n, r, m, s, field.W())
}

// candidateCoefficients yields tuple #cand: the first tuple is the
// natural (1, 2, 4, 8, ...) powers-of-two ladder, later ones are random
// distinct nonzero elements from a seeded PRNG.
func candidateCoefficients(cand, count int, mask uint32) []uint32 {
	coeffs := make([]uint32, count)
	if cand == 0 {
		v := uint32(1)
		for i := range coeffs {
			coeffs[i] = v
			v = (v << 1) & mask
			if v == 0 {
				v = 3
			}
		}
		return coeffs
	}
	rng := rand.New(rand.NewSource(int64(cand)*7919 + 13))
	seen := map[uint32]bool{}
	for i := range coeffs {
		for {
			v := (rng.Uint32() & mask)
			if v != 0 && !seen[v] {
				seen[v] = true
				coeffs[i] = v
				break
			}
		}
	}
	coeffs[0] = 1 // keep the all-ones first parity row, like every published instance
	return coeffs
}

// sdSurvivesBattery decodability-checks a deterministic sample of
// worst-case failure patterns (every z, several draws each).
func sdSurvivesBattery(sd *SD) bool {
	rng := rand.New(rand.NewSource(977))
	zMax := sd.s
	if zMax == 0 {
		sc, err := sd.drawWorstCase(rng, 0)
		return err == nil && Decodable(sd, sc)
	}
	for z := 1; z <= zMax; z++ {
		if z > sd.r {
			break
		}
		if sd.s > z*(sd.n-sd.m) {
			continue // s sector failures cannot fit in z surviving rows
		}
		for trial := 0; trial < 8; trial++ {
			sc, err := sd.drawWorstCase(rng, z)
			if err != nil {
				return false
			}
			if !Decodable(sd, sc) {
				return false
			}
		}
	}
	return true
}
