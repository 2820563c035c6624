package repair_test

// The symbolic plan verifier imports repair, so the proof of the
// planner's plans lives in the external test package.

import (
	"testing"

	"ppm/internal/codes"
	"ppm/internal/planverify"
	"ppm/internal/repair"
)

// TestPlansVerifySymbolically proves every plan shape the planner
// emits for single and double failures on the published SD instance.
func TestPlansVerifySymbolically(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := repair.NewPlanner(c)
	total := codes.TotalSectors(c)
	for a := 0; a < total; a++ {
		for b := a; b < total; b++ {
			var faulty []int
			if a == b {
				faulty = []int{a}
			} else {
				faulty = []int{a, b}
			}
			sc, err := codes.NewScenario(c, faulty)
			if err != nil || !codes.Decodable(c, sc) {
				continue
			}
			plan, err := pl.Plan(sc, nil)
			if err != nil {
				t.Fatalf("faulty=%v: %v", faulty, err)
			}
			for _, f := range planverify.VerifyRepairPlan(c, plan) {
				t.Errorf("faulty=%v: %s", faulty, f)
			}
		}
	}
}
