package planverify

import (
	"testing"

	"ppm/internal/codes"
	"ppm/internal/repair"
)

// BenchmarkVerifyRepairPlan times one proof of a degraded-read repair
// plan, LRC(12,2,2) with faulty {3,15} and wanted {3}: the cost
// verification would add to a repair planner miss if it were on by
// default.
func BenchmarkVerifyRepairPlan(b *testing.B) {
	c, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := codes.NewScenario(c, []int{3, 15})
	if err != nil {
		b.Fatal(err)
	}
	p, err := repair.NewPlanner(c).Plan(sc, []int{3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fs := VerifyRepairPlan(c, p); len(fs) != 0 {
			b.Fatal(fs[0])
		}
	}
}
