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
// casing. The repair planner (internal/repair) compiles its minimal-read
// plans from this selection.

// PartialSelection lists which sub-decodes of a partitioned plan must
// run to materialise a set of wanted sectors.
type PartialSelection struct {
	// GroupIdx are indices into Plan.Groups, in execution order.
	GroupIdx []int
	// NeedRest marks whether the remaining decode must run.
	NeedRest bool
}

// SelectPartial computes the minimal sub-decode closure for the wanted
// sectors of a partitioned (StrategyPPM) plan. Wanted sectors that are
// not faulty in the plan's scenario are ignored (they are readable
// as-is). A wanted faulty sector that no sub-decode recovers — every
// sector of a whole-matrix plan — is an error.
func (p *Plan) SelectPartial(wanted []int) (PartialSelection, error) {
	var sel PartialSelection
	faultyWanted := make(map[int]bool)
	inScenario := make(map[int]bool, len(p.Scenario.Faulty))
	for _, c := range p.Scenario.Faulty {
		inScenario[c] = true
	}
	for _, w := range wanted {
		if inScenario[w] {
			faultyWanted[w] = true
		}
	}
	if len(faultyWanted) == 0 {
		return sel, nil
	}

	needGroup := make([]bool, len(p.Groups))
	if p.Rest != nil {
		for _, c := range p.Rest.FaultyCols {
			if faultyWanted[c] {
				sel.NeedRest = true
				break
			}
		}
	}
	// Groups holding wanted blocks directly.
	for gi := range p.Groups {
		for _, c := range p.Groups[gi].FaultyCols {
			if faultyWanted[c] {
				needGroup[gi] = true
				break
			}
		}
	}
	// H_rest consumes recovered group outputs as survivors: pull in
	// every group whose faulty columns feed it.
	if sel.NeedRest {
		restSurvivor := make(map[int]bool, len(p.Rest.SurvivorCols))
		for _, c := range p.Rest.SurvivorCols {
			restSurvivor[c] = true
		}
		for gi := range p.Groups {
			if needGroup[gi] {
				continue
			}
			for _, c := range p.Groups[gi].FaultyCols {
				if restSurvivor[c] {
					needGroup[gi] = true
					break
				}
			}
		}
	}
	for gi, need := range needGroup {
		if need {
			sel.GroupIdx = append(sel.GroupIdx, gi)
		}
	}
	if len(sel.GroupIdx) == 0 && !sel.NeedRest {
		return sel, fmt.Errorf("core: wanted sectors %v are faulty but belong to no sub-decode of the partition", wanted)
	}
	return sel, nil
}
