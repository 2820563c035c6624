package planverify

import (
	"slices"
	"strings"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/repair"
)

// TestSweepProvesZoo is the headline property: every compiled artifact
// of the standard zoo — decode plans, repair plans, XOR programs,
// row-block lowerings, updaters — verifies with zero findings.
func TestSweepProvesZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo sweep is seconds-long; skipped in -short")
	}
	zoo, err := StandardZoo()
	if err != nil {
		t.Fatal(err)
	}
	fs, stats := Sweep(zoo, 1, 2)
	for _, f := range fs {
		t.Errorf("%s", f)
	}
	if stats.Plans == 0 || stats.Repairs == 0 || stats.Programs == 0 || stats.Blocks == 0 || stats.Updaters == 0 {
		t.Fatalf("sweep proved nothing in some category: %+v", stats)
	}
	t.Logf("proved %+v", stats)
}

// TestSweepProvesZooForcedXorplan re-proves the zoo with the XOR
// program backend forced, so every repair step carries a program and
// the nested program verification runs.
func TestSweepProvesZooForcedXorplan(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo sweep is seconds-long; skipped in -short")
	}
	defer kernel.SetXorplanMode(kernel.SetXorplanMode(kernel.XorplanOn))
	zoo, err := StandardZoo()
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := Sweep(zoo, 2, 1)
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

// TestVerifyDecodePlanAllStrategies proves each strategy's plan shape
// on one published instance, including the whole-matrix baselines the
// zoo sweep does not build for every scenario.
func TestVerifyDecodePlanAllStrategies(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := codes.NewScenario(c, []int{0, 7, 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []core.Strategy{
		core.StrategyAuto, core.StrategyPPM, core.StrategyPPMMatrixFirstRest, core.StrategyPPMFolded,
		core.StrategyWholeNormal, core.StrategyWholeMatrixFirst,
	} {
		plan, err := core.BuildPlan(c, sc, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for _, f := range VerifyDecodePlan(c, plan) {
			t.Errorf("%v: %s", strat, f)
		}
	}
}

// TestVerifyDecodePlanCatchesCorruption flips one coefficient of a
// built plan and demands the row-space check notice.
func TestVerifyDecodePlanCatchesCorruption(t *testing.T) {
	c, err := codes.NewPublishedSD(0)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := codes.NewScenario(c, []int{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(c, sc, core.StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	var m = effectiveMatrixOfFirstStage(plan)
	if m == nil {
		t.Fatal("plan has no stage matrix to corrupt")
	}
	old := m.At(0, 0)
	m.Set(0, 0, old^1)
	fs := VerifyDecodePlan(c, plan)
	m.Set(0, 0, old)
	symbolic := false
	for _, f := range fs {
		if f.Pass == "symbolic" || f.Pass == "structure" {
			symbolic = true
		}
	}
	if !symbolic {
		t.Fatalf("corrupted plan passed verification (findings: %v)", fs)
	}
}

// TestVerifyFoldedPlanCatchesCorruption: the folded walk runs the
// syndrome rows as symbolic accumulators, so a wrong syndrome
// coefficient and a dropped own-column term each leave a recovery
// expression outside H's row space, whatever the lowering checks say.
// It also proves the row modes of each group's one matrix: a G row
// flipped to accumulate, which adds the group's sectors into whatever
// their buffers held (a decode into zeroed sectors hides it, one over
// a recycled slab does not), and a syndrome row flipped to overwrite,
// which drops the syndrome added before it, are each reported.
func TestVerifyFoldedPlanCatchesCorruption(t *testing.T) {
	c, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *core.Plan {
		t.Helper()
		plan, err := core.BuildPlan(c, codes.EncodingScenario(c), core.StrategyPPMFolded)
		if err != nil {
			t.Fatal(err)
		}
		fd := plan.Folded()
		if fd == nil || fd.Groups[0].Syn == nil || len(fd.OwnCols) == 0 {
			t.Fatal("encode plan has no syndrome rows and own columns to corrupt")
		}
		if fs := VerifyDecodePlan(c, plan); len(fs) != 0 {
			t.Fatalf("pristine folded plan rejected: %v", fs)
		}
		return plan
	}
	// firstNonzero returns the position of m's first nonzero entry.
	firstNonzero := func(m *matrix.Matrix) (int, int) {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if m.At(i, j) != 0 {
					return i, j
				}
			}
		}
		t.Fatal("matrix is all zero")
		return 0, 0
	}
	// flipMode recompiles the block of group 0's matrix that writes its
	// row i with that row's mode flipped, in place of the original.
	flipMode := func(p *core.Plan, i int) {
		fg := &p.Folded().Groups[0]
		m := p.Groups[0].G.Stack(fg.Syn)
		blocks := fg.Compiled().Blocks()
		for bi, b := range blocks {
			for r, row := range b.Rows() {
				if row != i {
					continue
				}
				consts := make([][]uint32, len(b.Rows()))
				modes := make([]bool, len(b.Rows()))
				for k, rk := range b.Rows() {
					consts[k], modes[k] = m.Row(rk), b.Accumulates(k) != (k == r)
				}
				blocks[bi] = gf.CompileBlock(c.Field(), b.Rows(), consts, []int{len(consts)}, modes)[0]
				return
			}
		}
		t.Fatalf("no block writes row %d", i)
	}
	for _, tc := range []struct {
		name       string
		mutate     func(p *core.Plan)
		pass, want string
	}{
		{"wrong syndrome coefficient", func(p *core.Plan) {
			syn := p.Folded().Groups[0].Syn
			i, j := firstNonzero(syn)
			syn.Set(i, j, syn.At(i, j)^1)
		}, "symbolic", "row space"},
		{"dropped own-column term", func(p *core.Plan) {
			fd := p.Folded()
			i, j := firstNonzero(fd.Own)
			fd.Own.Set(i, j, 0)
		}, "symbolic", "row space"},
		{"G row flipped to accumulate", func(p *core.Plan) {
			flipMode(p, 0)
		}, "structure", "want it to overwrite"},
		{"syndrome row flipped to overwrite", func(p *core.Plan) {
			flipMode(p, p.Groups[0].G.Rows())
		}, "structure", "want it to accumulate"},
	} {
		plan := build()
		tc.mutate(plan)
		caught := false
		for _, f := range VerifyDecodePlan(c, plan) {
			if f.Pass == tc.pass && strings.Contains(f.Message, tc.want) {
				caught = true
			}
		}
		if !caught {
			t.Errorf("%s: no %s finding saying %q", tc.name, tc.pass, tc.want)
		}
	}
}

// TestVerifyRepairPlanCatchesCorruption breaks one part of a freshly
// built repair plan per case and demands at least one finding: the
// compiled lowering, the read set, the recovery of the wanted sector
// and the cost counters are each checked.
func TestVerifyRepairPlanCatchesCorruption(t *testing.T) {
	c, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := codes.NewScenario(c, []int{3, 15})
	if err != nil {
		t.Fatal(err)
	}
	build := func(t *testing.T) *repair.Plan {
		t.Helper()
		p, err := repair.NewPlanner(c).Plan(sc, []int{3})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Selection.Groups) == 0 || len(p.ReadCols) == 0 {
			t.Fatalf("plan has no group stage to break: %+v", p.Selection)
		}
		if fs := VerifyRepairPlan(c, p); len(fs) != 0 {
			t.Fatalf("unbroken plan has findings: %v", fs)
		}
		return p
	}
	cases := []struct {
		name    string
		corrupt func(p *repair.Plan)
	}{
		{"G changed after compiling", func(p *repair.Plan) {
			g := p.Selection.Groups[0].G
			g.Set(0, 0, g.At(0, 0)^1)
		}},
		{"ReadCols missing a sector", func(p *repair.Plan) {
			p.ReadCols = p.ReadCols[1:]
		}},
		{"wanted sector's stage removed", func(p *repair.Plan) {
			sel := *p.Selection
			sel.Groups = nil
			for _, g := range p.Selection.Groups {
				if !slices.Contains(g.FaultyCols, p.Wanted[0]) {
					sel.Groups = append(sel.Groups, g)
				}
			}
			if sel.Rest != nil && slices.Contains(sel.Rest.FaultyCols, p.Wanted[0]) {
				sel.Rest = nil
			}
			p.Selection = &sel
		}},
		{"Cost.MultXORs off by one", func(p *repair.Plan) {
			p.Cost.MultXORs++
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t)
			tc.corrupt(p)
			if fs := VerifyRepairPlan(c, p); len(fs) == 0 {
				t.Fatal("broken plan passed verification")
			} else {
				t.Logf("%d findings, first: %s", len(fs), fs[0])
			}
		})
	}
}

func effectiveMatrixOfFirstStage(p *core.Plan) interface {
	At(i, j int) uint32
	Set(i, j int, v uint32)
} {
	if len(p.Groups) > 0 {
		if p.Groups[0].G != nil {
			return p.Groups[0].G
		}
	}
	if p.Rest != nil && p.Rest.Finv != nil {
		return p.Rest.Finv
	}
	if p.Whole != nil && p.Whole.Finv != nil {
		return p.Whole.Finv
	}
	return nil
}

// TestVerifyUpdaterCatchesCorruption is covered through the mutation
// harness for programs; for updaters the sweep itself plus this
// negative probe — an updater for code A verified against code B's
// parity check — pins that the codeword test has teeth.
func TestVerifyUpdaterWrongCode(t *testing.T) {
	a, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codes.NewRS(10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.NewUpdater(a)
	if err != nil {
		t.Fatal(err)
	}
	if fs := VerifyUpdater(b, u); len(fs) == 0 {
		t.Fatal("updater for a different code verified cleanly")
	}
}
