package core

import (
	"fmt"
	"strings"
)

// Describe renders a plan the way Figure 3 walks through the worked
// example: log table, partition, per-group matrices and costs. Used by
// cmd/ppminspect and the paper-walkthrough example.
func (p *Plan) Describe(verbose bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: faulty sectors %v\n", p.Scenario.Faulty)
	if len(p.Scenario.FailedDisks) > 0 {
		fmt.Fprintf(&b, "          failed disks %v, z = %d\n", p.Scenario.FailedDisks, p.Scenario.Z)
	}
	fmt.Fprintf(&b, "strategy: %v\n", p.Costs.Strategy)

	if p.LogTable != nil {
		b.WriteString("\nlog table (Step 2):\n")
		b.WriteString(p.LogTable.String())
	}
	if p.Partition != nil {
		b.WriteString("\npartition:\n")
		b.WriteString(p.Partition.String())
	}
	b.WriteString("\ncosts (mult_XORs per stripe):\n")
	costLine := func(name string, v int64, chosen bool) {
		marker := ""
		if chosen {
			marker = "  <- chosen"
		}
		if v == CostUnknown {
			fmt.Fprintf(&b, "  %s: not evaluated\n", name)
			return
		}
		fmt.Fprintf(&b, "  %s = %d%s\n", name, v, marker)
	}
	c := p.Costs
	costLine("C1 (whole, normal)", c.C1, c.Strategy == StrategyWholeNormal)
	costLine("C2 (whole, matrix-first)", c.C2, c.Strategy == StrategyWholeMatrixFirst)
	costLine("C3 (ppm, matrix-first rest)", c.C3, c.Strategy == StrategyPPMMatrixFirstRest)
	costLine("C4 (ppm, normal rest)", c.C4, c.Strategy == StrategyPPM)
	costLine("C5 (ppm, rest syndrome folded into the groups)", c.C5, c.Strategy == StrategyPPMFolded)
	if c.C1 != CostUnknown && c.C4 != CostUnknown && c.C1 > 0 {
		fmt.Fprintf(&b, "  reduction (C1-C4)/C1 = %.2f%%\n", 100*float64(c.C1-c.C4)/float64(c.C1))
	}

	if verbose {
		for i := range p.Groups {
			g := &p.Groups[i]
			fmt.Fprintf(&b, "\nH%d (%v): recover %v from %v\n", i, g.Seq, g.FaultyCols, g.SurvivorCols)
			fmt.Fprintf(&b, "F%d^-1:\n%s", i, g.Finv.String())
			fmt.Fprintf(&b, "F%d^-1 * S%d:\n%s", i, i, g.G.String())
		}
		if p.Rest != nil {
			fmt.Fprintf(&b, "\nHrest (%v): recover %v from %v\n", p.Rest.Seq, p.Rest.FaultyCols, p.Rest.SurvivorCols)
			fmt.Fprintf(&b, "Frest^-1:\n%s", p.Rest.Finv.String())
			fmt.Fprintf(&b, "Srest:\n%s", p.Rest.S.String())
		}
		if fd := p.fold; fd != nil {
			for i := range fd.Groups {
				if fg := &fd.Groups[i]; fg.Syn != nil {
					fmt.Fprintf(&b, "\nH%d folds Srest rows %v:\n%s", i, fg.Rows, fg.Syn.String())
				}
			}
			fmt.Fprintf(&b, "\nHrest keeps Srest columns %v:\n%s", fd.OwnCols, fd.Own.String())
		}
		if p.Whole != nil {
			fmt.Fprintf(&b, "\nwhole-matrix decode (%v): recover %v\n", p.Whole.Seq, p.Whole.FaultyCols)
			fmt.Fprintf(&b, "F^-1:\n%s", p.Whole.Finv.String())
		}
	}
	return b.String()
}
