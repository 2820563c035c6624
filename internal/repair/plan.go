// Package repair plans minimal-read recovery: given a code's
// parity-check structure and a failure set, it picks the smallest
// survivor set that recovers each wanted sector (an LRC local group
// before the global parities, a single SD stripe row before the full
// closure), compiles the recovery equations into kernel products, and
// scores candidates by bytes-read first, mult_XORs second
// (cost.RepairCost). The paper's u(M)-minimising partition choice
// optimises operations; this layer extends the same idea to the
// dominant real cost of a repair — bytes read off surviving disks
// (the repair-bandwidth lens of arXiv:1412.3022).
package repair

import (
	"fmt"
	"slices"
	"sort"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/cost"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// Step is one compiled recovery product: Out = M · In, where In are
// survivor sectors (or outputs of earlier steps) and M is either the
// MatrixFirst product G or the Normal-sequence pair F⁻¹, S.
type Step struct {
	// Out lists the faulty sectors this step recovers (global indices).
	Out []int
	// In lists the sectors the product consumes, in column order.
	// Entries recovered by an earlier step are read from the stripe,
	// not the array.
	In []int
	// Seq selects the kernel sequence; G backs MatrixFirst, Finv and S
	// back Normal.
	Seq  kernel.Sequence
	G    *kernel.CompiledMatrix
	Finv *kernel.CompiledMatrix
	S    *kernel.CompiledMatrix
	// Ops is the step's predicted mult_XORs (matrix nonzero count).
	Ops int64
	// MinimizedRow is the parity-check row index when the step is a
	// single-row repair equation that beat the partition group's
	// survivor set; -1 when the step uses the group/rest sub-decode.
	MinimizedRow int
}

// Plan is a compiled minimal-read repair: the ordered steps that
// materialise the wanted faulty sectors, the survivor sectors they
// read, and the bytes-read × mult_XORs cost. Plans are immutable after
// construction and safe for concurrent execution on distinct stripes.
type Plan struct {
	// Scenario is the failure pattern the plan repairs.
	Scenario codes.Scenario
	// Wanted lists the faulty sectors the plan recovers, sorted. Every
	// other faulty sector may or may not be recovered (those sharing a
	// selected sub-decode are).
	Wanted []int
	// Steps run in order; later steps may consume earlier outputs.
	Steps []Step
	// ReadCols lists the survivor sectors the plan reads from the
	// array, sorted — the minimal read set. Outputs of earlier steps
	// are excluded: they are recovered in memory, not read.
	ReadCols []int
	// Cost scores the plan (bytes read first, mult_XORs tiebreak).
	Cost cost.RepairCost

	code      codes.Code
	nViews    int
	readDisks []int
}

// InputColumns returns the survivor sectors a caller must materialise
// in the stripe before Execute — ReadCols, aliased.
func (p *Plan) InputColumns() []int { return p.ReadCols }

// ReadDisks returns the distinct strips (disk indices) holding
// ReadCols, sorted — the strips a store-level repair must fetch. The
// slice is the plan's own, computed once when the plan was built;
// callers must not modify it.
func (p *Plan) ReadDisks() []int { return p.readDisks }

// canonicalWanted intersects wanted with the scenario's faulty set and
// sorts; a nil wanted selects every faulty sector (full repair).
func canonicalWanted(sc codes.Scenario, wanted []int) []int {
	if wanted == nil {
		out := make([]int, len(sc.Faulty))
		copy(out, sc.Faulty)
		return out
	}
	faulty := sc.FaultySet()
	seen := make(map[int]bool, len(wanted))
	var out []int
	for _, w := range wanted {
		if faulty[w] && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// buildPlan constructs the minimal-read plan: the core partition's
// partial-decode closure for the wanted sectors, with every
// single-failure group re-minimised against the raw parity-check rows
// (the group merges all rows touching the failure; one row usually
// reads fewer survivors). An undecodable scenario is rejected whatever
// the wanted set, so a plan always stands for a decodable scenario.
func buildPlan(c codes.Code, sc codes.Scenario, wanted []int) (*Plan, error) {
	if !codes.Decodable(c, sc) {
		return nil, fmt.Errorf("%w: %d erasures exceed %s's tolerance", core.ErrUnrecoverable, len(sc.Faulty), c.Name())
	}
	// The plan keeps its own copy of the scenario: a cached plan must
	// not alias a slice the caller reuses.
	sc.Faulty = slices.Clone(sc.Faulty)
	sc.FailedDisks = slices.Clone(sc.FailedDisks)
	p := &Plan{
		Scenario: sc,
		Wanted:   canonicalWanted(sc, wanted),
		code:     c,
	}
	p.Cost.FullReadSectors = codes.TotalSectors(c) - len(sc.Faulty)
	if len(p.Wanted) == 0 {
		return p, nil
	}

	cp, err := core.BuildPlan(c, sc, core.StrategyPPM)
	if err != nil {
		return nil, err
	}
	sel, err := cp.SelectPartial(p.Wanted)
	if err != nil {
		return nil, err
	}

	field := c.Field()
	h := c.ParityCheck()
	faulty := sc.FaultySet()
	for _, gi := range sel.GroupIdx {
		p.Steps = append(p.Steps, stepForGroup(field, h, &cp.Groups[gi], faulty))
	}
	if sel.NeedRest {
		r := cp.Rest
		p.Steps = append(p.Steps, Step{
			Out:          r.FaultyCols,
			In:           r.SurvivorCols,
			Seq:          kernel.Normal,
			Finv:         kernel.Compile(field, r.Finv),
			S:            kernel.Compile(field, r.S),
			Ops:          int64(r.Finv.NNZ() + r.S.NNZ()),
			MinimizedRow: -1,
		})
	}

	produced := make(map[int]bool)
	readSet := make(map[int]bool)
	for i := range p.Steps {
		for _, col := range p.Steps[i].In {
			if !produced[col] {
				readSet[col] = true
			}
		}
		for _, col := range p.Steps[i].Out {
			produced[col] = true
		}
		p.Cost.MultXORs += p.Steps[i].Ops
		p.nViews += len(p.Steps[i].In) + len(p.Steps[i].Out)
	}
	p.ReadCols = make([]int, 0, len(readSet))
	for col := range readSet {
		p.ReadCols = append(p.ReadCols, col)
	}
	sort.Ints(p.ReadCols)
	p.Cost.ReadSectors = len(p.ReadCols)
	n := c.NumStrips()
	onDisk := make([]bool, n)
	for _, col := range p.ReadCols {
		onDisk[col%n] = true
	}
	for d, ok := range onDisk {
		if ok {
			p.readDisks = append(p.readDisks, d)
		}
	}
	return p, nil
}

// stepForGroup compiles one partition group. A group holding a single
// faulty sector merges every parity-check row that touches it, so its
// survivor set is the union of those rows' supports; any single row
// whose other unknowns are all survivors recovers the sector alone as
//
//	b_f = h[i][f]⁻¹ · Σ_{j≠f} h[i][j] · b_j
//
// The row with the fewest survivors wins when it beats the group
// (cost.RepairCost ordering: bytes read first, ops tiebreak). For an
// LRC data block this picks the local-group row over any global
// parity row; for a one-failure RS stripe it picks one generator row
// (k survivors) over the merged n−1.
func stepForGroup(field gf.Field, h *matrix.Matrix, g *core.SubDecode, faulty map[int]bool) Step {
	if len(g.FaultyCols) == 1 {
		f := g.FaultyCols[0]
		bestRow := -1
		var bestIn []int
	rows:
		for i := 0; i < h.Rows(); i++ {
			a := h.At(i, f)
			if a == 0 {
				continue
			}
			var in []int
			for j := 0; j < h.Cols(); j++ {
				if j == f || h.At(i, j) == 0 {
					continue
				}
				if faulty[j] {
					continue rows // equation has another unknown
				}
				in = append(in, j)
			}
			if bestRow < 0 || len(in) < len(bestIn) {
				bestRow, bestIn = i, in
			}
		}
		if bestRow >= 0 && len(bestIn) < len(g.SurvivorCols) {
			a := h.At(bestRow, f)
			m := matrix.New(field, 1, len(bestIn))
			for k, j := range bestIn {
				m.Set(0, k, field.Div(h.At(bestRow, j), a))
			}
			return Step{
				Out:          []int{f},
				In:           bestIn,
				Seq:          kernel.MatrixFirst,
				G:            kernel.Compile(field, m),
				Ops:          int64(m.NNZ()),
				MinimizedRow: bestRow,
			}
		}
	}
	return Step{
		Out:          g.FaultyCols,
		In:           g.SurvivorCols,
		Seq:          kernel.MatrixFirst,
		G:            kernel.Compile(field, g.G),
		Ops:          int64(g.G.NNZ()),
		MinimizedRow: -1,
	}
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
