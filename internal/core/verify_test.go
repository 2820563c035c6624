package core_test

// The symbolic plan verifier imports core, so its proofs of the core
// planner's output live in core_test: every strategy's plan for a
// spread of scenarios on each code family must prove out, and so must
// every delta-parity updater.

import (
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/planverify"
)

func verifyCodes(t *testing.T) []codes.Code {
	t.Helper()
	var out []codes.Code
	for i := range codes.PublishedSD {
		c, err := codes.NewPublishedSD(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	lrc, err := codes.NewLRC(10, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := codes.NewRS(8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, lrc, rs)
}

// TestBuiltPlansVerifySymbolically proves every strategy's plan for
// the encoding scenario and a two-erasure scenario on each code.
func TestBuiltPlansVerifySymbolically(t *testing.T) {
	strategies := []core.Strategy{
		core.StrategyAuto, core.StrategyPPM, core.StrategyPPMMatrixFirstRest, core.StrategyPPMFolded,
		core.StrategyWholeNormal, core.StrategyWholeMatrixFirst,
	}
	for _, c := range verifyCodes(t) {
		scenarios := []codes.Scenario{codes.EncodingScenario(c)}
		if sc, err := codes.NewScenario(c, []int{0, codes.TotalSectors(c) - 1}); err == nil && codes.Decodable(c, sc) {
			scenarios = append(scenarios, sc)
		}
		for _, sc := range scenarios {
			for _, strat := range strategies {
				plan, err := core.BuildPlan(c, sc, strat)
				if err != nil {
					t.Fatalf("%s %v %v: %v", c.Name(), sc.Faulty, strat, err)
				}
				for _, f := range planverify.VerifyDecodePlan(c, plan) {
					t.Errorf("%s faulty=%v %v: %s", c.Name(), sc.Faulty, strat, f)
				}
			}
		}
	}
}

// TestUpdatersVerifySymbolically proves each code's delta-parity
// updater keeps every patched stripe a codeword.
func TestUpdatersVerifySymbolically(t *testing.T) {
	for _, c := range verifyCodes(t) {
		u, err := core.NewUpdater(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, f := range planverify.VerifyUpdater(c, u) {
			t.Errorf("%s: %s", c.Name(), f)
		}
	}
}
