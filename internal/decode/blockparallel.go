package decode

import (
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// DecodeBlockParallel is the block-level parallelism baseline from the
// paper's related work (§V, [36]-[38]): the traditional whole-matrix
// decode, with the *data regions* split into T word-aligned chunks that
// are processed concurrently. It performs exactly the same mult_XORs as
// the serial traditional decode (cost C1 in total, counted once however
// the bytes were split) but overlaps them across workers.
//
// PPM's claim against this family is architectural: block-level
// splitting parallelises the bytes but keeps the serial, whole-matrix
// computation and its C1 cost; PPM's matrix-oriented partition reduces
// the computation itself (C4 < C1) and parallelises along the failure
// structure. The ablation benchmarks compare all three.
func DecodeBlockParallel(c codes.Code, st *stripe.Stripe, sc codes.Scenario, threads int, opts Options) error {
	p, err := wholePlan(c, st, sc, opts.Sequence)
	if err != nil || p == nil {
		return err
	}
	if threads < 1 {
		threads = 1
	}
	// Word-aligned (and, when the range is large enough, tile-aligned —
	// so chunk splits compose with the kernel's cache blocking instead
	// of shearing tiles across workers) chunk boundaries over the sector
	// byte range, fanned out on the persistent worker pool. Every chunk
	// runs the one plan over its range; a failing chunk (lowest chunk
	// index wins) aborts the decode with its error.
	chunks := kernel.ChunkRangesAligned(st.SectorSize(), threads, c.Field().WordBytes())
	//ppm:hotpath
	err = kernel.DefaultWorkers().Run(len(chunks), func(i int) error {
		return core.ExecuteRange(p, st, chunks[i][0], chunks[i][1], nil)
	})
	if err != nil {
		return fmt.Errorf("decode: block-parallel decode failed: %w", err)
	}
	opts.Stats.AddMultXORs(p.Costs.Chosen)
	return nil
}
