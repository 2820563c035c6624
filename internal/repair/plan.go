// Package repair plans minimal-read recovery: given a code's
// parity-check structure and a failure set, it picks the smallest
// survivor set that recovers each wanted sector (an LRC local group
// before the global parities, a single SD stripe row before the full
// closure) as a cut-down copy of the scenario's PPM plan, which core's
// executor runs and planverify proves, and scores candidates by
// bytes-read first, mult_XORs second (cost.RepairCost). The paper's u(M)-minimising partition choice
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
	"ppm/internal/matrix"
)

// Plan is a minimal-read repair: the scenario's PPM plan cut down to
// the sub-decodes that materialise the wanted faulty sectors, the
// survivor sectors they read, and the bytes-read × mult_XORs cost.
// Plans are immutable after construction and safe for concurrent
// execution on distinct stripes.
type Plan struct {
	// Scenario is the failure pattern the plan repairs.
	Scenario codes.Scenario
	// Wanted lists the faulty sectors the plan recovers, sorted. Every
	// other faulty sector may or may not be recovered (those sharing a
	// selected sub-decode are).
	Wanted []int
	// Selection is the scenario's StrategyPPM plan cut down by
	// core.Plan.Select, with each single-failure group swapped for a
	// one-row sub-decode (core.RowSubDecode) when a parity-check row
	// reads fewer survivors. It runs through core's executor: its
	// groups read survivors only, its Rest also reads their outputs.
	// Its Costs.Chosen equals Cost.MultXORs.
	Selection *core.Plan
	// ReadCols lists the survivor sectors the plan reads from the
	// array, sorted — the minimal read set. Sectors the groups recover
	// for H_rest are excluded: they are recovered in memory, not read.
	ReadCols []int
	// Cost scores the plan (bytes read first, mult_XORs tiebreak).
	Cost cost.RepairCost

	code      codes.Code
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
		out := slices.Clone(sc.Faulty)
		sort.Ints(out)
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
// selection for the wanted sectors, with every single-failure group
// re-minimised against the raw parity-check rows (the group merges all
// rows touching the failure; one row usually reads fewer survivors).
// An undecodable scenario is rejected whatever the wanted set, so a
// plan always stands for a decodable scenario.
func buildPlan(c codes.Code, sc codes.Scenario, wanted []int) (*Plan, error) {
	if err := codes.CheckFaulty(c, sc.Faulty); err != nil {
		return nil, err
	}
	if !codes.Decodable(c, sc) {
		return nil, fmt.Errorf("%w: %d erasures exceed %s's tolerance", core.ErrUnrecoverable, len(sc.Faulty), c.Name())
	}
	// The plan keeps its own copy of the scenario: a cached plan must
	// not alias a slice the caller reuses.
	sc.Faulty = slices.Clone(sc.Faulty)
	sc.FailedDisks = slices.Clone(sc.FailedDisks)
	p := &Plan{
		Scenario:  sc,
		Wanted:    canonicalWanted(sc, wanted),
		Selection: &core.Plan{Scenario: sc},
		code:      c,
	}
	p.Cost.FullReadSectors = codes.TotalSectors(c) - len(sc.Faulty)
	if len(p.Wanted) == 0 {
		return p, nil
	}

	full, err := core.BuildPlan(c, sc, core.StrategyPPM)
	if err != nil {
		return nil, err
	}
	sel, err := full.Select(p.Wanted)
	if err != nil {
		return nil, err
	}
	h := c.ParityCheck()
	faulty := sc.FaultySet()
	for i := range sel.Groups {
		g := &sel.Groups[i]
		row := shorterRow(h, g, faulty)
		if row < 0 {
			continue
		}
		one, err := core.RowSubDecode(c, row, g.FaultyCols[0])
		if err != nil {
			return nil, err
		}
		// Groups run MatrixFirst, so G holds each one's mult_XORs.
		sel.Costs.Chosen += int64(one.G.NNZ() - g.G.NNZ())
		*g = one
	}
	p.Selection = sel
	p.Cost.MultXORs = sel.Costs.Chosen

	read := make(map[int]bool)
	addReads := func(sd *core.SubDecode) {
		for _, col := range sd.SurvivorCols {
			if !faulty[col] {
				read[col] = true
			}
		}
	}
	for i := range sel.Groups {
		addReads(&sel.Groups[i])
	}
	if sel.Rest != nil {
		addReads(sel.Rest)
	}
	p.ReadCols = make([]int, 0, len(read))
	for col := range read {
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

// shorterRow returns the parity-check row that recovers group g's one
// faulty sector from the fewest survivors, when it reads fewer than g
// does, and -1 otherwise. A group holding a single faulty sector merges
// every row that touches it, so it reads the union of those rows'
// supports; any single row whose other unknowns are all survivors
// recovers the sector alone (core.RowSubDecode). The row with the
// fewest survivors wins when it beats the group (cost.RepairCost
// ordering: bytes read first). For an LRC data block this picks the
// local-group row over any global parity row; for a one-failure RS
// stripe it picks one generator row (k survivors) over the merged n−1.
func shorterRow(h *matrix.Matrix, g *core.SubDecode, faulty map[int]bool) int {
	if len(g.FaultyCols) != 1 {
		return -1
	}
	f := g.FaultyCols[0]
	best, bestReads := -1, len(g.SurvivorCols)
rows:
	for i := 0; i < h.Rows(); i++ {
		if h.At(i, f) == 0 {
			continue
		}
		reads := 0
		for j := 0; j < h.Cols(); j++ {
			if j == f || h.At(i, j) == 0 {
				continue
			}
			if faulty[j] {
				continue rows // equation has another unknown
			}
			reads++
		}
		if reads < bestReads {
			best, bestReads = i, reads
		}
	}
	return best
}
