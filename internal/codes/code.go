// Package codes defines the erasure codes the PPM paper studies as
// parity-check-matrix instances: the asymmetric-parity SD, PMDS and LRC
// codes that PPM accelerates, and the symmetric-parity RS baseline it is
// compared against (Figure 8).
//
// Every code is exposed the same way — a parity-check matrix H over
// GF(2^w) with one column per sector of the stripe (column i*n + j is
// the sector in stripe row i on disk j) plus the set of parity
// positions — so both the traditional decoder and PPM operate on any of
// them uniformly, exactly as §II-B describes.
package codes

import (
	"fmt"
	"slices"
	"sort"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// Code is an erasure-code instance over one stripe.
type Code interface {
	// Name identifies the instance, e.g. "SD^{2,2}_{6,4}(8|1,42,26,61)".
	Name() string
	// Field is the Galois field the coefficients live in.
	Field() gf.Field
	// NumStrips returns n, the number of disks (strips) in the stripe.
	NumStrips() int
	// NumRows returns r, the number of sectors per strip. Codes defined
	// on whole blocks (LRC, and RS viewed per-block) may have r == 1.
	NumRows() int
	// ParityCheck returns H, with NumRows()*... — precisely RH rows and
	// NumStrips()*NumRows() columns. The returned matrix is shared;
	// callers must not modify it.
	ParityCheck() *matrix.Matrix
	// ParityPositions returns the sorted global sector indices that hold
	// redundancy. Encoding is decoding with exactly these as erasures.
	ParityPositions() []int
}

// TotalSectors returns the number of sectors (columns of H) in a stripe.
func TotalSectors(c Code) int { return c.NumStrips() * c.NumRows() }

// DataPositions returns the sorted global indices not in ParityPositions.
func DataPositions(c Code) []int {
	parity := make(map[int]bool, len(c.ParityPositions()))
	for _, p := range c.ParityPositions() {
		parity[p] = true
	}
	var data []int
	for i := 0; i < TotalSectors(c); i++ {
		if !parity[i] {
			data = append(data, i)
		}
	}
	return data
}

// Scenario is a failure pattern over one stripe: the set of unreadable
// sectors. FailedDisks and Z are informational (they describe how the
// pattern was generated, mirroring the paper's m faulty disks plus s
// faulty sectors confined to z rows).
type Scenario struct {
	// Faulty holds the global sector indices that were lost, sorted.
	Faulty []int
	// FailedDisks lists whole-disk failures contributing to Faulty.
	FailedDisks []int
	// Z is the number of distinct rows holding the additional sector
	// failures (0 if there are none).
	Z int
}

// NewScenario builds a scenario from an arbitrary set of faulty sector
// indices, validating them against the code's geometry.
func NewScenario(c Code, faulty []int) (Scenario, error) {
	sorted := append([]int(nil), faulty...)
	sort.Ints(sorted)
	if err := CheckFaulty(c, sorted); err != nil {
		return Scenario{}, err
	}
	return Scenario{Faulty: sorted}, nil
}

// CheckFaulty reports the first faulty index that lies outside
// [0, n·r) or repeats an earlier one. The list need not be sorted, and
// checking it allocates nothing. Every entry point that takes a
// Scenario it did not build checks it here before indexing H or a
// stripe with it.
func CheckFaulty(c Code, faulty []int) error {
	total := TotalSectors(c)
	sorted := true
	for i, idx := range faulty {
		if idx < 0 || idx >= total {
			return fmt.Errorf("codes: faulty sector %d out of range [0,%d)", idx, total)
		}
		if i == 0 {
			continue
		}
		// A strictly increasing prefix holds no repeat; past the first
		// descent, look back.
		sorted = sorted && idx > faulty[i-1]
		if !sorted && slices.Contains(faulty[:i], idx) {
			return fmt.Errorf("codes: duplicate faulty sector %d", idx)
		}
	}
	return nil
}

// FaultySet returns the scenario's faulty indices as a membership set.
func (sc Scenario) FaultySet() map[int]bool {
	set := make(map[int]bool, len(sc.Faulty))
	for _, i := range sc.Faulty {
		set[i] = true
	}
	return set
}

// EncodingScenario returns the scenario whose erasures are exactly the
// code's parity positions: solving it computes the parity content from
// the data content ("the encoding process of an erasure code is a
// special case of the decoding process", §II-B).
func EncodingScenario(c Code) Scenario {
	return Scenario{Faulty: append([]int(nil), c.ParityPositions()...)}
}

// Decodable reports whether the scenario is recoverable by this code
// instance: its faulty list must pass CheckFaulty, and the
// faulty-column sub-matrix F must have full column rank (for square F,
// invertibility).
func Decodable(c Code, sc Scenario) bool {
	if CheckFaulty(c, sc.Faulty) != nil {
		return false
	}
	h := c.ParityCheck()
	if len(sc.Faulty) == 0 {
		return true
	}
	if len(sc.Faulty) > h.Rows() {
		return false
	}
	f := h.SelectColumns(sc.Faulty)
	return f.Rank() == len(sc.Faulty)
}

// MaxParityCheckEntries bounds a code's parity-check matrix H at rows
// × columns entries. H is dense, and a constructor's geometry may come
// from untrusted input (a ppmfile manifest, an API argument): a 2-disk
// SD over 65,536 rows would ask for 2^33 entries, 32 GiB. The paper's
// grids stay under 10^5 entries.
const MaxParityCheckEntries = 1 << 24

// checkParityCheckSize returns an error when a rows × cols parity-check
// matrix would exceed MaxParityCheckEntries. Every constructor calls it
// before it sizes anything from its arguments. Callers compute the
// dimensions in float64, where an absurd geometry cannot wrap into a
// small one the way an int product can; any size past 2^53, where
// float64 rounds, is far past the bound.
func checkParityCheckSize(code string, rows, cols float64) error {
	if rows*cols > MaxParityCheckEntries {
		return fmt.Errorf("codes: %s parity-check matrix of %.0f x %.0f exceeds %d entries",
			code, rows, cols, MaxParityCheckEntries)
	}
	return nil
}

// Validate checks structural invariants common to all instances:
// H has the right shape, parity positions are in range and distinct,
// and the encoding scenario is solvable (its F sub-matrix has full
// column rank). Constructors call this before returning an instance.
func Validate(c Code) error {
	h := c.ParityCheck()
	total := TotalSectors(c)
	if h.Cols() != total {
		return fmt.Errorf("codes: %s: H has %d columns, want %d", c.Name(), h.Cols(), total)
	}
	pp := c.ParityPositions()
	if len(pp) != h.Rows() {
		return fmt.Errorf("codes: %s: %d parity positions but H has %d rows (encode would be over/under-determined)",
			c.Name(), len(pp), h.Rows())
	}
	seen := make(map[int]bool, len(pp))
	for _, p := range pp {
		if p < 0 || p >= total {
			return fmt.Errorf("codes: %s: parity position %d out of range", c.Name(), p)
		}
		if seen[p] {
			return fmt.Errorf("codes: %s: duplicate parity position %d", c.Name(), p)
		}
		seen[p] = true
	}
	if !Decodable(c, EncodingScenario(c)) {
		return fmt.Errorf("codes: %s: parity columns of H are singular; instance cannot encode", c.Name())
	}
	return nil
}

// sectorIndex converts (row, disk) to the global column index.
func sectorIndex(n, row, disk int) int { return row*n + disk }
