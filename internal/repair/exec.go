package repair

import (
	"fmt"

	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Execute runs the plan against a stripe whose ReadCols sectors hold
// survivor data; on return the Wanted sectors hold recovered content.
// The selection runs through core's executor at T = 1 — a repair plan
// is one or two small stages, so the parallel win is in pipelining
// stripes, not splitting a stage.
func (p *Plan) Execute(st *stripe.Stripe, stats *kernel.Stats) error {
	return p.ExecuteRange(st, 0, st.SectorSize(), stats)
}

// ExecuteRange is Execute restricted to the [lo, hi) byte sub-range of
// every sector — the partial-stripe path a range-restricted degraded
// read uses. lo and hi must be multiples of the field word size.
// Allocation-free at steady state: core's executor draws its session
// from a pool and applies the selection's compiled matrices.
//
//ppm:hotpath
func (p *Plan) ExecuteRange(st *stripe.Stripe, lo, hi int, stats *kernel.Stats) error {
	if err := p.validate(st.N(), st.R(), st.SectorSize(), lo, hi); err != nil {
		return err
	}
	return core.ExecuteRange(p.Selection, st, lo, hi, stats)
}

// validate checks a stripe and byte range against the plan's geometry.
func (p *Plan) validate(n, r, sectorSize, lo, hi int) error {
	if n != p.code.NumStrips() || r != p.code.NumRows() {
		return fmt.Errorf("repair: stripe %dx%d does not match code %s (%dx%d)",
			n, r, p.code.Name(), p.code.NumStrips(), p.code.NumRows())
	}
	wb := p.code.Field().WordBytes()
	if lo < 0 || hi > sectorSize || lo >= hi {
		return fmt.Errorf("repair: byte range [%d,%d) outside sector size %d", lo, hi, sectorSize)
	}
	if lo%wb != 0 || hi%wb != 0 {
		return fmt.Errorf("repair: byte range [%d,%d) not aligned to the %d-byte GF word", lo, hi, wb)
	}
	return nil
}
