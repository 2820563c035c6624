package decode

import (
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/stripe"
)

// DecodeBlockParallel is the block-level parallelism baseline from the
// paper's related work (§V, [36]-[38]): the traditional whole-matrix
// decode, with the *data regions* split into T word-aligned chunks that
// are processed concurrently. It performs exactly the same mult_XORs as
// the serial traditional decode (cost C1 in total — the counter sees
// T partial operations per coefficient, normalised below) but overlaps
// them across workers.
//
// PPM's claim against this family is architectural: block-level
// splitting parallelises the bytes but keeps the serial, whole-matrix
// computation and its C1 cost; PPM's matrix-oriented partition reduces
// the computation itself (C4 < C1) and parallelises along the failure
// structure. The ablation benchmarks compare all three.
func DecodeBlockParallel(c codes.Code, st *stripe.Stripe, sc codes.Scenario, threads int, opts Options) (err error) {
	if err := checkGeometry(c, st); err != nil {
		return err
	}
	if err := codes.CheckFaulty(c, sc.Faulty); err != nil {
		return err
	}
	if len(sc.Faulty) == 0 {
		return nil
	}
	if threads < 1 {
		threads = 1
	}
	// A malformed parity-check matrix (or any other kernel-level shape
	// violation) surfaces as a returned error, never a crash or a
	// silently incomplete decode.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decode: block-parallel decode failed: %v", r)
		}
	}()
	h := c.ParityCheck()
	faulty := sc.FaultySet()

	fM, sM, fCols, sCols := h.SplitColumns(func(col int) bool { return faulty[col] })
	if fM.Rows() < fM.Cols() {
		return fmt.Errorf("decode: %d erasures exceed %d parity-check rows of %s", fM.Cols(), fM.Rows(), c.Name())
	}
	if fM.Rows() > fM.Cols() {
		rows, perr := fM.PivotRows()
		if perr != nil {
			return fmt.Errorf("decode: %s cannot recover pattern %v: %w", c.Name(), sc.Faulty, perr)
		}
		fM = fM.SelectRows(rows)
		sM = sM.SelectRows(rows)
	}
	finv, err := fM.Invert()
	if err != nil {
		return fmt.Errorf("decode: %s cannot recover pattern %v: %w", c.Name(), sc.Faulty, err)
	}
	// The matrices are compiled exactly once — into fused, table-bound
	// row kernels shared by every chunk worker — so T threads pay one
	// lowering, not T. For MatrixFirst the scalar product F^-1 * S is
	// likewise computed once (the serial baseline recomputed it per
	// chunk plus once for stats).
	var cFinv, cS, cG *kernel.CompiledMatrix
	var g *matrix.Matrix
	if opts.Sequence == kernel.MatrixFirst {
		g = finv.Mul(sM)
		cG = kernel.Compile(c.Field(), g)
	} else {
		cFinv = kernel.Compile(c.Field(), finv)
		cS = kernel.Compile(c.Field(), sM)
	}

	in := st.Sectors(sCols)
	out := st.Sectors(fCols)

	// Word-aligned (and, when the range is large enough, tile-aligned —
	// so chunk splits compose with the kernel's cache blocking instead
	// of shearing tiles across workers) chunk boundaries over the sector
	// byte range, fanned out on the persistent worker pool. Each chunk
	// runs the serial tiled range product; a failing chunk (lowest chunk
	// index wins) aborts the decode with its error.
	chunks := kernel.ChunkRangesAligned(st.SectorSize(), threads, c.Field().WordBytes())
	//ppm:hotpath
	err = kernel.DefaultWorkers().Run(len(chunks), func(i int) error {
		ch := chunks[i]
		kernel.CompiledProductRange(cFinv, cS, cG, in, out, nil, opts.Sequence, ch[0], ch[1], nil)
		return nil
	})
	if err != nil {
		return err
	}
	// The stats contract counts one mult_XORs per nonzero coefficient
	// regardless of how the byte range was split.
	if opts.Stats != nil {
		if g != nil {
			opts.Stats.AddMultXORs(int64(g.NNZ()))
		} else {
			opts.Stats.AddMultXORs(int64(finv.NNZ() + sM.NNZ()))
		}
	}
	return nil
}
