// Package decode implements the traditional parity-check-matrix
// encoding/decoding process of §II-B — the serial, whole-matrix baseline
// that PPM is measured against:
//
//	Step 1: derive H from the code definition.
//	Step 2: split H's columns into F (faulty) and S (surviving).
//	Step 3: invert F.
//	Step 4: BF = F^-1 * S * BS.
//
// Both calculation sequences are supported: Normal (cost C1) and
// MatrixFirst (cost C2). Encoding is performed as the special decode
// whose erasures are the parity positions.
package decode

import (
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Options configure a traditional decode.
type Options struct {
	// Sequence is the calculation order; the open-source SD decoder the
	// paper builds on uses Normal, so that is the zero value.
	Sequence kernel.Sequence
	// Stats, if non-nil, accumulates mult_XORs counts.
	Stats *kernel.Stats
}

// Decode recovers the scenario's faulty sectors of st in place from the
// surviving sectors. The faulty buffers' prior contents are ignored and
// overwritten. Returns codes/matrix errors for unrecoverable patterns
// and for faulty lists codes.CheckFaulty rejects.
func Decode(c codes.Code, st *stripe.Stripe, sc codes.Scenario, opts Options) error {
	if err := checkGeometry(c, st); err != nil {
		return err
	}
	if err := codes.CheckFaulty(c, sc.Faulty); err != nil {
		return err
	}
	if len(sc.Faulty) == 0 {
		return nil
	}
	h := c.ParityCheck()
	faulty := sc.FaultySet()

	// Step 2: F from faulty columns, S from surviving columns.
	fM, sM, fCols, sCols := h.SplitColumns(func(col int) bool { return faulty[col] })
	if fM.Rows() < fM.Cols() {
		return fmt.Errorf("decode: %d erasures exceed %d parity-check rows of %s", fM.Cols(), fM.Rows(), c.Name())
	}
	if fM.Rows() > fM.Cols() {
		// Over-determined (fewer erasures than equations): keep a square
		// invertible subset of equations.
		rows, err := fM.PivotRows()
		if err != nil {
			return fmt.Errorf("decode: %s cannot recover pattern %v: %w", c.Name(), sc.Faulty, err)
		}
		fM = fM.SelectRows(rows)
		sM = sM.SelectRows(rows)
	}

	// Step 3: invert F.
	finv, err := fM.Invert()
	if err != nil {
		return fmt.Errorf("decode: %s cannot recover pattern %v: %w", c.Name(), sc.Faulty, err)
	}

	// Step 4: BF = F^-1 * S * BS into the faulty sectors.
	in := st.Sectors(sCols)
	out := st.Sectors(fCols)
	kernel.Product(c.Field(), finv, sM, in, out, nil, opts.Sequence, opts.Stats)
	return nil
}

// Encode computes all parity sectors of st in place from the data
// sectors ("the encoding process ... is a special case of the decoding
// process", §II-B).
func Encode(c codes.Code, st *stripe.Stripe, opts Options) error {
	return Decode(c, st, codes.EncodingScenario(c), opts)
}

// Verify checks H * B == 0 over the stripe contents, region-wise: the
// stripe holds a codeword iff every parity-check row XOR-sums to zero.
//
//ppm:counted verification is outside the paper's encode/decode cost model; no figure consumes its counts
func Verify(c codes.Code, st *stripe.Stripe) (bool, error) {
	if err := checkGeometry(c, st); err != nil {
		return false, err
	}
	h := c.ParityCheck()
	f := c.Field()
	acc := make([]byte, st.SectorSize())
	// One multiplier per distinct coefficient across the whole check —
	// H's coefficients repeat heavily (all-ones rows, shared powers), so
	// this keeps a many-stripe verify at compiled-table speed.
	mults := make(map[uint32]gf.Multiplier)
	for i := 0; i < h.Rows(); i++ {
		for j := range acc {
			acc[j] = 0
		}
		row := h.Row(i)
		for col, a := range row {
			if a == 0 {
				continue
			}
			mult, ok := mults[a]
			if !ok {
				mult = gf.MultiplierFor(f, a)
				mults[a] = mult
			}
			mult.MultXOR(acc, st.Sector(col))
		}
		for _, b := range acc {
			if b != 0 {
				return false, nil
			}
		}
	}
	return true, nil
}

func checkGeometry(c codes.Code, st *stripe.Stripe) error {
	if st.N() != c.NumStrips() || st.R() != c.NumRows() {
		return fmt.Errorf("decode: stripe %dx%d does not match code %s (%dx%d)",
			st.N(), st.R(), c.Name(), c.NumStrips(), c.NumRows())
	}
	if st.SectorSize()%c.Field().WordBytes() != 0 {
		return fmt.Errorf("decode: sector size %d not a multiple of GF(2^%d) words",
			st.SectorSize(), c.Field().W())
	}
	return nil
}
