package planverify

import (
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
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
		core.StrategyAuto, core.StrategyPPM, core.StrategyPPMMatrixFirstRest,
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
