package core

import (
	"fmt"
)

// Partial selection (extension). A degraded read needs one block, not
// every lost block in the stripe; the paper's partition makes the
// minimal work explicit: a wanted block recovered by an independent
// sub-matrix needs only that sub-decode, while a block in H_rest needs
// H_rest plus the groups whose outputs H_rest consumes as survivors.
// For an LRC degraded read this collapses to the single local-group
// decode — the core of the code family's design — without any special
// casing. The repair planner (internal/repair) builds its minimal-read
// plans from this selection.

// Select cuts a partitioned plan down to the sub-decodes that recover
// the wanted sectors. The result is a plan of the same scenario: its
// Groups are copies of the selected groups, in plan order, and its Rest
// is the plan's own H_rest when selected, so it shares their compiled
// matrices, recompiles nothing and runs through the same executor. Its
// Costs.Chosen is the selected sub-decodes' mult_XORs; C1..C5 are
// CostUnknown. Wanted sectors that are not faulty are ignored (they are
// readable as-is). A wanted faulty sector that no sub-decode recovers —
// every sector of a whole-matrix plan — is an error, and so is a folded
// plan, whose H_rest applies only F_rest⁻¹: select from a StrategyPPM
// plan.
func (p *Plan) Select(wanted []int) (*Plan, error) {
	if p.fold != nil {
		return nil, fmt.Errorf("core: a folded plan cannot be cut down: its H_rest reads the groups' syndrome shares")
	}
	want := make(map[int]bool, len(wanted))
	for _, w := range wanted {
		want[w] = true
	}
	if p.Whole != nil && recoversAny(&p.Whole.SubDecode, want) {
		return nil, fmt.Errorf("core: wanted sectors %v are faulty but belong to no sub-decode of the partition", wanted)
	}
	sel := &Plan{
		Scenario: p.Scenario,
		Costs:    Costs{C1: CostUnknown, C2: CostUnknown, C3: CostUnknown, C4: CostUnknown, C5: CostUnknown, Strategy: p.Costs.Strategy},
	}
	// H_rest consumes recovered group outputs as survivors: selecting it
	// pulls in every group whose faulty columns feed it.
	feedsRest := make(map[int]bool)
	if p.Rest != nil && recoversAny(p.Rest, want) {
		sel.Rest = p.Rest
		for _, c := range p.Rest.SurvivorCols {
			feedsRest[c] = true
		}
		sel.Costs.Chosen += p.Rest.ops()
	}
	for i := range p.Groups {
		if g := &p.Groups[i]; recoversAny(g, want) || recoversAny(g, feedsRest) {
			sel.Groups = append(sel.Groups, *g)
			sel.Costs.Chosen += g.ops()
		}
	}
	return sel, nil
}

// recoversAny reports whether the sub-decode recovers a sector in set.
func recoversAny(sd *SubDecode, set map[int]bool) bool {
	for _, c := range sd.FaultyCols {
		if set[c] {
			return true
		}
	}
	return false
}
