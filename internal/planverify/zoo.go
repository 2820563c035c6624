package planverify

import (
	"fmt"
	"math/rand"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/repair"
	"ppm/internal/xorplan"
)

// The standard zoo: every code family the repository constructs, at
// the parameterisations the paper and the harnesses use. The sweep
// walks each code's failure scenarios, builds every plan shape the
// production paths build, and proves each compiled artifact — the
// ppmverify CLI and the CI verifier leg run exactly this.

// ZooCode pairs a code instance with its display name.
type ZooCode struct {
	Name string
	Code codes.Code
}

// StandardZoo instantiates the verification zoo: the two published SD
// instances, the harnesses' LRC and RS parameterisations.
func StandardZoo() ([]ZooCode, error) {
	var zoo []ZooCode
	for i := range codes.PublishedSD {
		c, err := codes.NewPublishedSD(i)
		if err != nil {
			return nil, err
		}
		zoo = append(zoo, ZooCode{Name: c.Name(), Code: c})
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		return nil, err
	}
	zoo = append(zoo, ZooCode{Name: lrc.Name(), Code: lrc})
	rs, err := codes.NewRS(10, 1, 4)
	if err != nil {
		return nil, err
	}
	zoo = append(zoo, ZooCode{Name: rs.Name(), Code: rs})
	return zoo, nil
}

// Scenarios enumerates the failure scenarios verified per code: the
// encoding scenario, every decodable single- and double-sector failure,
// and extra seeded random scenarios at the code's maximum tolerance
// (as many erasures as H has rows).
func Scenarios(c codes.Code, seed int64, extra int) []codes.Scenario {
	total := codes.TotalSectors(c)
	out := []codes.Scenario{codes.EncodingScenario(c)}
	add := func(faulty ...int) {
		sc, err := codes.NewScenario(c, faulty)
		if err == nil && codes.Decodable(c, sc) {
			out = append(out, sc)
		}
	}
	for i := 0; i < total; i++ {
		add(i)
	}
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			add(i, j)
		}
	}
	maxErasures := c.ParityCheck().Rows()
	if maxErasures > 2 && extra > 0 {
		rng := rand.New(rand.NewSource(seed))
		found := 0
		for attempt := 0; attempt < 64*extra && found < extra; attempt++ {
			perm := rng.Perm(total)[:maxErasures]
			sc, err := codes.NewScenario(c, perm)
			if err == nil && codes.Decodable(c, sc) {
				out = append(out, sc)
				found++
			}
		}
	}
	return out
}

// SweepStats counts the artifacts one sweep proved.
type SweepStats struct {
	Codes     int `json:"codes"`
	Scenarios int `json:"scenarios"`
	Plans     int `json:"plans"`
	Repairs   int `json:"repairs"`
	Programs  int `json:"programs"`
	Blocks    int `json:"blocks"`
	Updaters  int `json:"updaters"`
}

// heldMatrix is one coefficient matrix a plan stage holds, with the
// compiled matrix that applies its rows.
type heldMatrix struct {
	m  *matrix.Matrix
	cm *kernel.CompiledMatrix // nil: the stage's sequence never applies m
}

// planMatrices lists every coefficient matrix one core plan holds. A
// stage compiles only the matrices its sequence applies, so a
// MatrixFirst stage's Finv and S and a Normal stage's G come without a
// compiled copy. A folded group's G and syndrome rows both come with
// the group's one compiled matrix, whose XOR programs, when attached,
// are exactly one per part.
func planMatrices(p *core.Plan) []heldMatrix {
	var out []heldMatrix
	add := func(sd *core.SubDecode, folded *kernel.CompiledMatrix) {
		if sd == nil {
			return
		}
		cFinv, cS, cG := sd.Compiled()
		if folded != nil {
			cG = folded
		}
		for _, h := range []heldMatrix{{sd.G, cG}, {sd.Finv, cFinv}, {sd.S, cS}} {
			if h.m != nil {
				out = append(out, h)
			}
		}
	}
	fd := p.Folded()
	for i := range p.Groups {
		var folded *kernel.CompiledMatrix
		if fd != nil {
			folded = fd.Groups[i].Compiled()
		}
		add(&p.Groups[i], folded)
	}
	add(p.Rest, nil)
	if p.Whole != nil {
		add(&p.Whole.SubDecode, nil)
	}
	if fd != nil {
		for i := range fd.Groups {
			if fg := &fd.Groups[i]; fg.Syn != nil {
				out = append(out, heldMatrix{fg.Syn, fg.Compiled()})
			}
		}
		if len(fd.OwnCols) > 0 {
			out = append(out, heldMatrix{fd.Own, fd.CompiledOwn()})
		}
	}
	return out
}

// Sweep proves every compiled artifact of the zoo: core decode plans
// (the PPM partition, its folded form wherever it has an H_rest to
// fold, and, for the encoding scenario, the auto-resolved strategy),
// repair plans (full and single-sector wanted sets), the
// xorplan program and row-block lowering of every matrix a plan holds,
// and each code's delta-parity updater. seed feeds the random
// max-tolerance scenarios. Stats count each proof once: Blocks counts
// the row-block sets of matrices a plan holds but never compiles, and
// Programs the XOR programs the stage walk did not prove; the walk's
// own proofs count under Plans.
func Sweep(zoo []ZooCode, seed int64, extra int) ([]Finding, SweepStats) {
	var fs []Finding
	var stats SweepStats
	for _, zc := range zoo {
		c := zc.Code
		f := c.Field()
		stats.Codes++

		if u, err := core.NewUpdater(c); err != nil {
			fs = append(fs, Finding{Object: objUpdater, Detail: zc.Name, Pass: "structure", OpIndex: -1,
				Message: fmt.Sprintf("building updater: %v", err)})
		} else {
			fs = append(fs, stamp(VerifyUpdater(c, u), zc.Name)...)
			stats.Updaters++
		}

		planner := repair.NewPlanner(c)
		for _, sc := range Scenarios(c, seed, extra) {
			detail := fmt.Sprintf("%s faulty=%v", zc.Name, sc.Faulty)
			stats.Scenarios++

			strategies := []core.Strategy{core.StrategyPPM, core.StrategyPPMFolded}
			if len(sc.FailedDisks) == 0 && len(sc.Faulty) == len(c.ParityPositions()) {
				strategies = append(strategies, core.StrategyAuto)
			}
			for _, strat := range strategies {
				plan, err := core.BuildPlan(c, sc, strat)
				if err != nil {
					fs = append(fs, Finding{Object: objDecodePlan, Detail: detail, Pass: "structure", OpIndex: -1,
						Message: fmt.Sprintf("building %v plan: %v", strat, err)})
					continue
				}
				if strat == core.StrategyPPMFolded && plan.Folded() == nil {
					continue // no H_rest to fold: the StrategyPPM plan, proven above
				}
				fs = append(fs, stamp(VerifyDecodePlan(c, plan), detail)...)
				stats.Plans++

				// The walk proved the plan's compiled copies, and the
				// XOR program attached to one on the xorplan backend.
				// Prove the rest: the row blocks of each matrix the plan
				// never compiles, and every program the walk did not.
				for _, h := range planMatrices(plan) {
					if h.cm == nil {
						fs = append(fs, stamp(VerifyBlocks(f, h.m, kernel.Compile(f, h.m)), detail)...)
						stats.Blocks++
					} else if h.cm.XORProgram() != nil {
						continue
					}
					prog, err := xorplan.CompileCached(f, h.m)
					if err != nil {
						fs = append(fs, Finding{Object: objXorProgram, Detail: detail, Pass: "structure", OpIndex: -1,
							Message: fmt.Sprintf("compiling %s program: %v", h.m.Dims(), err)})
						continue
					}
					fs = append(fs, stamp(VerifyProgram(f, h.m, prog), detail)...)
					stats.Programs++
				}
			}

			wantedSets := [][]int{nil}
			if len(sc.Faulty) > 1 {
				wantedSets = append(wantedSets, []int{sc.Faulty[0]})
			}
			for _, wanted := range wantedSets {
				rp, err := planner.Plan(sc, wanted)
				if err != nil {
					fs = append(fs, Finding{Object: objRepairPlan, Detail: detail, Pass: "structure", OpIndex: -1,
						Message: fmt.Sprintf("building repair plan (wanted=%v): %v", wanted, err)})
					continue
				}
				fs = append(fs, stamp(VerifyRepairPlan(c, rp), detail)...)
				stats.Repairs++
			}
		}
	}
	return fs, stats
}
