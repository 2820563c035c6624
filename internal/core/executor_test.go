package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/kernel"
)

// TestExecuteSpanMatchesTraditional runs every plan shape through the
// executor at T = 1, 2 and 4. Every faulty sector must equal the
// scalar oracle's traditional decode, and the measured mult_XORs must
// equal the plan's predicted cost.
func TestExecuteSpanMatchesTraditional(t *testing.T) {
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sd2, err := codes.NewSD(6, 2, 2, 1) // r = 2: at most 2 groups, so p < T at T = 4
	if err != nil {
		t.Fatal(err)
	}
	rdp, err := codes.NewRDP(5)
	if err != nil {
		t.Fatal(err)
	}
	eo, err := codes.NewEVENODD(5)
	if err != nil {
		t.Fatal(err)
	}
	// disks fails every sector of the listed disks.
	disks := func(c codes.Code, ds ...int) func() (codes.Scenario, error) {
		return func() (codes.Scenario, error) {
			var faulty []int
			for r := 0; r < c.NumRows(); r++ {
				for _, d := range ds {
					faulty = append(faulty, r*c.NumStrips()+d)
				}
			}
			return codes.NewScenario(c, faulty)
		}
	}
	sdWorst := func() (codes.Scenario, error) { return sd.WorstCaseScenario(rand.New(rand.NewSource(801)), 1) }
	shapes := []struct {
		name     string
		code     codes.Code
		strategy Strategy
		scenario func() (codes.Scenario, error)
		// pcase is the §III-C case of the PPM partition; 0 for a
		// whole-matrix plan.
		pcase int
	}{
		{"EVENODD p=0", eo, StrategyPPM, disks(eo, 3, 4), 1},
		{"RDP p=1", rdp, StrategyPPM, disks(rdp, 0, 1), 2},
		{"SD p=2 case 3.1", sd2, StrategyPPM, disks(sd2, 0, 1), 31},
		{"SD case 3.2", sd, StrategyPPM, sdWorst, 32},
		{"SD whole-normal", sd, StrategyWholeNormal, sdWorst, 0},
		{"SD whole-matrix-first", sd, StrategyWholeMatrixFirst, sdWorst, 0},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sc, err := shape.scenario()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := BuildPlan(shape.code, sc, shape.strategy)
			if err != nil {
				t.Fatal(err)
			}
			pcase := 0
			if plan.Partition != nil {
				pcase = plan.Partition.Case()
			}
			if pcase != shape.pcase {
				t.Fatalf("partition case %d, want %d", pcase, shape.pcase)
			}

			damaged := encodedStripe(t, shape.code, 256, 802)
			damaged.Scribble(3, sc.Faulty)
			trad := damaged.Clone()
			if err := scalarDecode(shape.code, trad, sc); err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 2, 4} {
				st := damaged.Clone()
				var stats kernel.Stats
				if err := Execute(plan, st, shape.code.Field(), threads, &stats); err != nil {
					t.Fatalf("T=%d: %v", threads, err)
				}
				for _, c := range sc.Faulty {
					if !bytes.Equal(st.Sector(c), trad.Sector(c)) {
						t.Fatalf("T=%d: sector %d differs from the scalar decode", threads, c)
					}
				}
				if stats.MultXORs() != plan.Costs.Chosen {
					t.Fatalf("T=%d: measured %d mult_XORs, plan predicted %d", threads, stats.MultXORs(), plan.Costs.Chosen)
				}
			}
		})
	}
}
