package core

import (
	"errors"
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// Strategy selects how a decode is planned.
type Strategy int

const (
	// StrategyAuto performs the paper's full §III-B optimisation plus
	// the fold: it evaluates the exact costs C1..C5 and picks the
	// strictly cheapest of whole-matrix MatrixFirst (C2, the ~5% of
	// configurations where the partition does not pay off), the folded
	// PPM plan (C5) and PPM (C4); a tie keeps C4.
	StrategyAuto Strategy = iota
	// StrategyPPM always partitions: independent groups with the
	// MatrixFirst sequence, H_rest with Normal — the C4 plan. This is
	// the production fast path: it never inverts the whole F matrix.
	StrategyPPM
	// StrategyPPMMatrixFirstRest is the C3 plan (groups and H_rest both
	// MatrixFirst); the paper shows it is never optimal, and it exists
	// here for the ablation benchmarks.
	StrategyPPMMatrixFirstRest
	// StrategyWholeNormal is the traditional serial decode with the
	// Normal sequence — the C1 baseline.
	StrategyWholeNormal
	// StrategyWholeMatrixFirst is the traditional decode with the
	// MatrixFirst sequence — the C2 generator-matrix method.
	StrategyWholeMatrixFirst
	// StrategyPPMFolded is the C5 plan: PPM's groups each also add their
	// rows of H_rest's syndrome over their own survivors, so H_rest
	// keeps only the columns no group reads and F_rest⁻¹ (fold.go).
	// Without an H_rest it is the C4 plan.
	StrategyPPMFolded
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyPPM:
		return "ppm"
	case StrategyPPMMatrixFirstRest:
		return "ppm-c3"
	case StrategyWholeNormal:
		return "whole-normal"
	case StrategyWholeMatrixFirst:
		return "whole-matrix-first"
	case StrategyPPMFolded:
		return "ppm-folded"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CostUnknown marks a cost that the chosen strategy did not need to
// evaluate (computing C1/C2 requires inverting the whole F matrix, which
// the PPM fast path deliberately avoids).
const CostUnknown = -1

// Costs is the §III-B cost model for one scenario, in mult_XORs per
// stripe, plus C5, the folded plan's cost. Chosen is the predicted cost
// of the plan actually built; the executor's measured operation count
// must equal it (tested).
type Costs struct {
	C1, C2, C3, C4, C5 int64
	Chosen             int64
	Strategy           Strategy
}

// SubDecode is one matrix-decoding operation of a plan: recover the
// FaultyCols blocks from the SurvivorCols blocks. Depending on Seq the
// executor applies G (MatrixFirst) or S then Finv (Normal). A
// whole-normal plan's G is nil: nothing would apply it.
type SubDecode struct {
	FaultyCols   []int
	SurvivorCols []int
	Finv         *matrix.Matrix
	S            *matrix.Matrix
	G            *matrix.Matrix
	Seq          kernel.Sequence

	// Compiled forms of the matrices the chosen sequence uses, lowered
	// once at plan time so repeated decodes skip per-call lookup-table
	// construction (see kernel.CompiledMatrix).
	cFinv, cS, cG *kernel.CompiledMatrix
}

// Compiled returns the compiled matrices the executor applies: g under
// MatrixFirst, finv and s under Normal, nil otherwise. A folded plan's
// H_rest has finv alone, and its groups none: the fold compiles each
// group's G with its syndrome rows (fold.go). planverify proves them
// against G, Finv and S.
func (sd *SubDecode) Compiled() (finv, s, g *kernel.CompiledMatrix) {
	return sd.cFinv, sd.cS, sd.cG
}

// compile lowers the matrices the chosen sequence will apply.
func (sd *SubDecode) compile(f gf.Field) {
	if sd.Seq == kernel.MatrixFirst {
		sd.cG = kernel.Compile(f, sd.G)
		return
	}
	sd.cFinv = kernel.Compile(f, sd.Finv)
	sd.cS = kernel.Compile(f, sd.S)
}

// ops returns the predicted mult_XORs of executing this sub-decode.
func (sd *SubDecode) ops() int64 {
	if sd == nil {
		return 0
	}
	if sd.Seq == kernel.MatrixFirst {
		return int64(sd.G.NNZ())
	}
	return int64(sd.Finv.NNZ() + sd.S.NNZ())
}

// Plan is a fully prepared decode: all sub-matrices extracted, inverted
// and (for MatrixFirst) pre-multiplied. Executing a plan touches only
// block regions.
type Plan struct {
	Scenario  codes.Scenario
	LogTable  *LogTable
	Partition *Partition
	// Groups are the p parallel sub-decodes (Step 3); empty for
	// whole-matrix strategies.
	Groups []SubDecode
	// Rest is the merging sub-decode (Step 4); nil when H_rest is NULL
	// or a whole-matrix strategy is used.
	Rest *SubDecode
	// Whole is the single serial sub-decode of the traditional method;
	// nil for PPM strategies.
	Whole *WholePlan
	Costs Costs

	fold *Fold // the C5 lowering, when the plan runs it (fold.go)
}

// WholePlan wraps the whole-matrix sub-decode so that a nil check
// distinguishes "traditional plan" from "PPM plan".
type WholePlan struct {
	SubDecode
}

// ErrUnrecoverable reports a failure pattern beyond the code's reach.
var ErrUnrecoverable = errors.New("core: failure pattern is unrecoverable")

// BuildPlan runs PPM Steps 1-2 plus the sequence optimisation and
// returns an executable plan. The faulty list may be unsorted; an index
// outside the stripe or a repeated one is an error (codes.CheckFaulty).
func BuildPlan(c codes.Code, sc codes.Scenario, strategy Strategy) (*Plan, error) {
	if err := codes.CheckFaulty(c, sc.Faulty); err != nil {
		return nil, err
	}
	h := c.ParityCheck()
	plan := &Plan{Scenario: sc}
	plan.Costs = Costs{C1: CostUnknown, C2: CostUnknown, C3: CostUnknown, C4: CostUnknown, C5: CostUnknown}

	if len(sc.Faulty) == 0 {
		plan.Costs.Strategy = strategy
		plan.Costs.Chosen = 0
		return plan, nil
	}
	if len(sc.Faulty) > h.Rows() {
		return nil, fmt.Errorf("%w: %d erasures, %d parity-check rows", ErrUnrecoverable, len(sc.Faulty), h.Rows())
	}

	needWhole := strategy == StrategyAuto || strategy == StrategyWholeNormal || strategy == StrategyWholeMatrixFirst
	var whole *SubDecode
	if needWhole {
		// The Normal sequence never applies G = F^-1 * S, so a
		// whole-normal plan skips the product and leaves C2 unknown.
		var err error
		whole, err = buildWholeSubDecode(c, sc, strategy != StrategyWholeNormal)
		if err != nil {
			return nil, err
		}
		plan.Costs.C1 = int64(whole.Finv.NNZ() + whole.S.NNZ())
		if whole.G != nil {
			plan.Costs.C2 = int64(whole.G.NNZ())
		}
	}

	needPPM := strategy != StrategyWholeNormal && strategy != StrategyWholeMatrixFirst
	if needPPM {
		if err := buildPPMSubDecodes(c, sc, plan); err != nil {
			return nil, err
		}
		groupOps := int64(0)
		for i := range plan.Groups {
			groupOps += plan.Groups[i].ops()
		}
		restC3, restC4 := int64(0), int64(0)
		if plan.Rest != nil {
			restC3 = int64(plan.Rest.G.NNZ())
			restC4 = int64(plan.Rest.Finv.NNZ() + plan.Rest.S.NNZ())
		}
		plan.Costs.C3 = groupOps + restC3
		plan.Costs.C4 = groupOps + restC4
	}

	var fold *Fold
	if strategy == StrategyAuto || strategy == StrategyPPMFolded {
		plan.Costs.C5 = plan.Costs.C4
		if plan.Rest != nil {
			fold = buildFold(plan, codes.TotalSectors(c))
			plan.Costs.C5 = plan.Costs.C4 - int64(plan.Rest.S.NNZ()) + fold.ops
		}
	}

	// Resolve the strategy.
	resolved := strategy
	if strategy == StrategyAuto {
		resolved = StrategyPPM
		best := plan.Costs.C4
		if plan.Costs.C5 < best {
			resolved, best = StrategyPPMFolded, plan.Costs.C5
		}
		if plan.Costs.C2 < best {
			resolved = StrategyWholeMatrixFirst
		}
	}
	plan.Costs.Strategy = resolved

	switch resolved {
	case StrategyPPM:
		if plan.Rest != nil {
			plan.Rest.Seq = kernel.Normal
		}
		plan.Costs.Chosen = plan.Costs.C4
	case StrategyPPMFolded:
		if plan.Rest != nil {
			plan.Rest.Seq = kernel.Normal
		}
		plan.fold = fold
		plan.Costs.Chosen = plan.Costs.C5
	case StrategyPPMMatrixFirstRest:
		if plan.Rest != nil {
			plan.Rest.Seq = kernel.MatrixFirst
		}
		plan.Costs.Chosen = plan.Costs.C3
	case StrategyWholeNormal:
		whole.Seq = kernel.Normal
		plan.Whole = &WholePlan{SubDecode: *whole}
		plan.Groups, plan.Rest, plan.Partition, plan.LogTable = nil, nil, nil, nil
		plan.Costs.Chosen = plan.Costs.C1
	case StrategyWholeMatrixFirst:
		whole.Seq = kernel.MatrixFirst
		plan.Whole = &WholePlan{SubDecode: *whole}
		plan.Groups, plan.Rest, plan.Partition, plan.LogTable = nil, nil, nil, nil
		plan.Costs.Chosen = plan.Costs.C2
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", strategy)
	}

	// Lower the plan's matrices into compiled multiplier form. A folded
	// plan compiles its groups' G into the fold's group matrices.
	f := c.Field()
	if plan.fold != nil {
		plan.fold.compile(f, plan)
	} else {
		for i := range plan.Groups {
			plan.Groups[i].compile(f)
		}
		if plan.Rest != nil {
			plan.Rest.compile(f)
		}
	}
	if plan.Whole != nil {
		plan.Whole.compile(f)
	}
	return plan, nil
}

// buildWholeSubDecode prepares the traditional Steps 2-3 on the full H,
// and the MatrixFirst product G when withG is set.
func buildWholeSubDecode(c codes.Code, sc codes.Scenario, withG bool) (*SubDecode, error) {
	h := c.ParityCheck()
	faulty := sc.FaultySet()
	fM, sM, fCols, sCols := h.SplitColumns(func(col int) bool { return faulty[col] })
	if fM.Rows() > fM.Cols() {
		rows, err := fM.PivotRows()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
		fM = fM.SelectRows(rows)
		sM = sM.SelectRows(rows)
	}
	finv, err := fM.Invert()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	sub := &SubDecode{FaultyCols: fCols, SurvivorCols: sCols, Finv: finv, S: sM}
	if withG {
		sub.G = finv.Mul(sM)
	}
	return sub, nil
}

// buildPPMSubDecodes performs Steps 1-2 (log table, partition) and
// prepares each group's and H_rest's matrices (Steps 3.1-3.2). A group
// whose F_i is singular is demoted into H_rest rather than failing the
// decode.
func buildPPMSubDecodes(c codes.Code, sc codes.Scenario, plan *Plan) error {
	h := c.ParityCheck()
	plan.LogTable = BuildLogTable(h, sc.Faulty)
	plan.Partition = BuildPartition(plan.LogTable, sc.Faulty)

	for i := 0; i < len(plan.Partition.Groups); {
		g := plan.Partition.Groups[i]
		sub, err := buildGroupSubDecode(h, g)
		if err != nil {
			plan.Partition.demote(i)
			plan.Groups = plan.Groups[:0]
			i = 0 // restart: demotion changed H_rest and group indices
			continue
		}
		plan.Groups = append(plan.Groups, *sub)
		i++
	}

	if len(plan.Partition.RestFaulty) > 0 {
		rest, err := buildRestSubDecode(h, plan.Partition)
		if err != nil {
			return err
		}
		plan.Rest = rest
	}
	return nil
}

// buildGroupSubDecode prepares one independent sub-matrix H_i: F_i from
// the group's faulty columns, S_i from its surviving nonzero columns,
// MatrixFirst product G_i = F_i^-1 * S_i (the paper proves MatrixFirst
// is always cheaper for groups, since every F_i/S_i entry is nonzero).
func buildGroupSubDecode(h *matrix.Matrix, g Group) (*SubDecode, error) {
	sub := h.SelectRows(g.Rows)
	faulty := make(map[int]bool, len(g.FaultyCols))
	for _, col := range g.FaultyCols {
		faulty[col] = true
	}
	var survivors []int
	for _, col := range sub.NonzeroColumns() {
		if !faulty[col] {
			survivors = append(survivors, col)
		}
	}
	fM := sub.SelectColumns(g.FaultyCols)
	sM := sub.SelectColumns(survivors)
	finv, err := fM.Invert()
	if err != nil {
		return nil, err
	}
	return &SubDecode{
		FaultyCols:   g.FaultyCols,
		SurvivorCols: survivors,
		Finv:         finv,
		S:            sM,
		G:            finv.Mul(sM),
		Seq:          kernel.MatrixFirst,
	}, nil
}

// RowSubDecode compiles the one-row sub-decode that recovers faulty
// sector col from parity-check row alone,
//
//	b_col = h[row][col]⁻¹ · Σ_{j≠col} h[row][j] · b_j,
//
// reading every other sector the row touches. The repair planner swaps
// it in for a single-failure group whose merged rows read more
// survivors.
func RowSubDecode(c codes.Code, row, col int) (SubDecode, error) {
	sd, err := buildGroupSubDecode(c.ParityCheck(), Group{Rows: []int{row}, FaultyCols: []int{col}})
	if err != nil {
		return SubDecode{}, fmt.Errorf("core: parity-check row %d cannot recover sector %d: %w", row, col, err)
	}
	sd.compile(c.Field())
	return *sd, nil
}

// buildRestSubDecode prepares H_rest (Step 4): F_rest over the still-
// missing blocks, S_rest over every other nonzero column — including the
// blocks the groups recover in Step 3, which are survivors by the time
// the merge runs.
func buildRestSubDecode(h *matrix.Matrix, pt *Partition) (*SubDecode, error) {
	sub := h.SelectRows(pt.RestRows)
	faulty := make(map[int]bool, len(pt.RestFaulty))
	for _, col := range pt.RestFaulty {
		faulty[col] = true
	}
	fM := sub.SelectColumns(pt.RestFaulty)
	if fM.Rows() < fM.Cols() {
		return nil, fmt.Errorf("%w: H_rest has %d equations for %d unknowns", ErrUnrecoverable, fM.Rows(), fM.Cols())
	}
	rowSel := make([]int, sub.Rows())
	for i := range rowSel {
		rowSel[i] = i
	}
	if fM.Rows() > fM.Cols() {
		rows, err := fM.PivotRows()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
		rowSel = rows
		fM = fM.SelectRows(rows)
	}
	reduced := sub.SelectRows(rowSel)
	var survivors []int
	for _, col := range reduced.NonzeroColumns() {
		if !faulty[col] {
			survivors = append(survivors, col)
		}
	}
	sM := reduced.SelectColumns(survivors)
	finv, err := fM.Invert()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	return &SubDecode{
		FaultyCols:   pt.RestFaulty,
		SurvivorCols: survivors,
		Finv:         finv,
		S:            sM,
		G:            finv.Mul(sM),
		Seq:          kernel.Normal,
	}, nil
}
