package planverify

import (
	"sort"

	"ppm/internal/codes"
	"ppm/internal/repair"
)

const objRepairPlan = "repair-plan"

// VerifyRepairPlan proves a minimal-read repair plan: the stage walk
// over its Selection (as for decode plans, including the compiled
// lowering of every stage), the selection recovers every wanted
// sector, ReadCols is exactly the survivors the stages read, and the
// Cost counters recompute from the matrices the stages apply. A
// minimized single-row stage needs no check of its own: the row-space
// proof covers it like any other stage.
func VerifyRepairPlan(c codes.Code, p *repair.Plan) []Finding {
	if p.Selection == nil {
		return []Finding{{Object: objRepairPlan, Pass: "structure", OpIndex: -1, Message: "plan carries no selection"}}
	}
	st := walk(c, p.Scenario, p.Selection, objRepairPlan)
	for _, w := range p.Wanted {
		if st.expr[w] == nil {
			st.reportf("structure", -1, "wanted sector %d is never recovered by any stage", w)
		}
	}

	// ReadCols must be exactly the survivors the stages read from the
	// array — an overstated set inflates repair bandwidth accounting, an
	// understated one starves the executor of inputs.
	want := make([]int, 0, len(st.read))
	for s := range st.read {
		want = append(want, s)
	}
	sort.Ints(want)
	if len(want) != len(p.ReadCols) {
		st.reportf("stats", -1, "plan lists %d read sectors, its stages read %d", len(p.ReadCols), len(want))
	} else {
		for i := range want {
			if want[i] != p.ReadCols[i] {
				st.reportf("stats", -1, "plan read set diverges at sector %d (plan lists %d)", want[i], p.ReadCols[i])
				break
			}
		}
	}
	if p.Cost.MultXORs != st.cost {
		st.reportf("stats", -1, "plan costs %d mult_XORs, its stages perform %d", p.Cost.MultXORs, st.cost)
	}
	if p.Cost.ReadSectors != len(p.ReadCols) {
		st.reportf("stats", -1, "plan costs %d read sectors, ReadCols has %d", p.Cost.ReadSectors, len(p.ReadCols))
	}
	return st.findings
}
