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
//
// Every call redoes Steps 1-3, as the paper's baseline does: it builds
// an uncached whole-matrix core plan. Step 4 runs that plan through
// core's executor at T = 1, on the compiled kernels PPM runs on, so a
// comparison with PPM measures the decode algorithms and not two region
// back ends.
package decode

import (
	"encoding/binary"
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/core"
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
	p, err := wholePlan(c, st, sc, opts.Sequence)
	if err != nil || p == nil {
		return err
	}
	if err := core.Execute(p, st, c.Field(), 1, opts.Stats); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// Encode computes all parity sectors of st in place from the data
// sectors ("the encoding process ... is a special case of the decoding
// process", §II-B).
func Encode(c codes.Code, st *stripe.Stripe, opts Options) error {
	return Decode(c, st, codes.EncodingScenario(c), opts)
}

// wholePlan performs Steps 1-3 for one call: a fresh whole-matrix plan
// for the sequence (the generator product G only under MatrixFirst).
// It returns a nil plan for an empty scenario.
func wholePlan(c codes.Code, st *stripe.Stripe, sc codes.Scenario, seq kernel.Sequence) (*core.Plan, error) {
	if err := checkGeometry(c, st); err != nil {
		return nil, err
	}
	if err := codes.CheckFaulty(c, sc.Faulty); err != nil {
		return nil, err
	}
	if len(sc.Faulty) == 0 {
		return nil, nil
	}
	var strategy core.Strategy
	switch seq {
	case kernel.Normal:
		strategy = core.StrategyWholeNormal
	case kernel.MatrixFirst:
		strategy = core.StrategyWholeMatrixFirst
	default:
		return nil, fmt.Errorf("decode: unknown sequence %v", seq)
	}
	p, err := core.BuildPlan(c, sc, strategy)
	if err != nil {
		return nil, fmt.Errorf("decode: %s cannot recover pattern %v: %w", c.Name(), sc.Faulty, err)
	}
	return p, nil
}

// Verify checks H * B == 0 over the stripe contents, region-wise: the
// stripe holds a codeword iff every parity-check row XOR-sums to zero.
func Verify(c codes.Code, st *stripe.Stripe) (bool, error) {
	scratch, err := computeSyndromes(c, st)
	if err != nil {
		return false, err
	}
	defer scratch.Release()
	for _, s := range scratch.Regions() {
		if !isZero(s) {
			return false, nil
		}
	}
	return true, nil
}

// computeSyndromes computes s_i = Σ_col H[i][col] * b_col for every
// parity-check row in one pass of the compiled H, into pooled scratch
// that the caller releases.
func computeSyndromes(c codes.Code, st *stripe.Stripe) (*kernel.Scratch, error) {
	if err := checkGeometry(c, st); err != nil {
		return nil, err
	}
	h := c.ParityCheck()
	in := make([][]byte, h.Cols())
	for col := range in {
		in[col] = st.Sector(col)
	}
	syn := kernel.GetScratch(h.Rows(), st.SectorSize())
	kernel.Compile(c.Field(), h).ApplyOverwrite(in, syn.Regions(), nil)
	return syn, nil
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

// isZero reports whether every byte of b is zero, eight bytes a step.
func isZero(b []byte) bool {
	var acc uint64
	n := len(b) &^ 7
	for i := 0; i < n; i += 8 {
		acc |= binary.LittleEndian.Uint64(b[i:])
	}
	for _, v := range b[n:] {
		acc |= uint64(v)
	}
	return acc == 0
}
