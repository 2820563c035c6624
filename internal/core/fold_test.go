package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// TestFoldedMatchesC4AndDecode: on SD, PMDS, LRC and RS worst cases the
// folded plan recovers byte for byte what the C4 plan and the
// traditional decode.Decode recover, at T = 1, 2 and 4, counting
// exactly C5. The sector sizes cover a tail shorter than one 64-byte
// chunk, a sector several tiles long, which T = 1 runs tile by tile and
// T > 1 splits on tile boundaries, and a sector over 1 MiB, which T = 1
// fans out across the worker pool as a whole-sector apply would.
func TestFoldedMatchesC4AndDecode(t *testing.T) {
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	small, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := codes.NewSD(4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pmds, err := codes.NewPMDS(6, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := codes.NewRS(8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	cases := []struct {
		code   codes.Code
		sector int
		gen    func() (codes.Scenario, error)
	}{
		{sd, 1000, func() (codes.Scenario, error) { return sd.WorstCaseScenario(rng, 1+rng.Intn(2)) }},
		{sd, 4096, func() (codes.Scenario, error) { return codes.EncodingScenario(sd), nil }},
		{small, 160 << 10, func() (codes.Scenario, error) { return small.WorstCaseScenario(rng, 1) }},
		{tiny, 1<<20 + 448, func() (codes.Scenario, error) { return tiny.WorstCaseScenario(rng, 1) }},
		{pmds, 512, func() (codes.Scenario, error) { return pmds.WorstCaseScenario(rng, 2) }},
		{lrc, 256, func() (codes.Scenario, error) { return lrc.WorstCaseScenario(rng) }},
		{rs, 640, func() (codes.Scenario, error) { return rs.WorstCaseScenario(rng) }},
	}
	for _, cse := range cases {
		st, err := stripe.New(cse.code.NumStrips(), cse.code.NumRows(), cse.sector)
		if err != nil {
			t.Fatal(err)
		}
		st.FillDataRandom(rng.Int63(), codes.DataPositions(cse.code))
		if err := decode.Encode(cse.code, st, decode.Options{}); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			sc, err := cse.gen()
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s sector %d faulty %v", cse.code.Name(), cse.sector, sc.Faulty)
			folded, err := core.BuildPlan(cse.code, sc, core.StrategyPPMFolded)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			c4, err := core.BuildPlan(cse.code, sc, core.StrategyPPM)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if c5 := folded.Costs.C5; c5 != folded.Costs.Chosen || c5 > c4.Costs.C4 {
				t.Fatalf("%s: C5 = %d, chosen %d, C4 = %d", label, c5, folded.Costs.Chosen, c4.Costs.C4)
			}
			trad := st.Clone()
			trad.Scribble(int64(trial), sc.Faulty)
			if err := decode.Decode(cse.code, trad, sc, decode.Options{}); err != nil {
				t.Fatalf("%s: decode.Decode: %v", label, err)
			}
			if !trad.Equal(st) {
				t.Fatalf("%s: decode.Decode recovered wrong bytes", label)
			}
			for _, threads := range []int{1, 2, 4} {
				for _, p := range []*core.Plan{folded, c4} {
					work := st.Clone()
					work.Scribble(int64(trial+threads), sc.Faulty)
					var stats kernel.Stats
					if err := core.Execute(p, work, cse.code.Field(), threads, &stats); err != nil {
						t.Fatalf("%s %v T=%d: %v", label, p.Costs.Strategy, threads, err)
					}
					if !work.Equal(trad) {
						t.Fatalf("%s %v T=%d: bytes differ from decode.Decode", label, p.Costs.Strategy, threads)
					}
					if stats.MultXORs() != p.Costs.Chosen {
						t.Fatalf("%s %v T=%d: counted %d mult_XORs, plan predicts %d",
							label, p.Costs.Strategy, threads, stats.MultXORs(), p.Costs.Chosen)
					}
				}
			}
		}
	}
}

// TestFoldedCosts pins C5 against C4 on the worst cases of SD(n,16,m,2)
// for n in {6, 8, 16, 24} and m in {1, 2, 3}, where the fold is
// strictly cheaper and Auto takes it, and of LRC(12,2,2), LRC(24,4,2)
// and LRC(60,4,2), where it saves nothing and Auto keeps C4. The three
// ledger shapes are exact: SD(8,16,2,2)'s encode 452 → 392 (ingest),
// SD(16,16,2,2)'s worst case 964 → 904 (rebuild) and SD(8,16,2,2)'s
// worst case 452 → 392 (serve). On each, every folded group's G and
// syndrome rows share one row block: the groups run 15 row-block
// passes per tile, where compiling G and the syndrome rows apart takes
// 30.
func TestFoldedCosts(t *testing.T) {
	plan := func(c codes.Code, sc codes.Scenario) *core.Plan {
		t.Helper()
		p, err := core.BuildPlan(c, sc, core.StrategyAuto)
		if err != nil {
			t.Fatalf("%s %v: %v", c.Name(), sc.Faulty, err)
		}
		return p
	}
	auto := func(c codes.Code, sc codes.Scenario) core.Costs {
		t.Helper()
		return plan(c, sc).Costs
	}
	for _, n := range []int{6, 8, 16, 24} {
		for m := 1; m <= 3; m++ {
			sd, err := codes.NewSD(n, 16, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(int64(n*10+m))), 1)
			if err != nil {
				t.Fatal(err)
			}
			if c := auto(sd, sc); c.C5 >= c.C4 || (c.Strategy != core.StrategyPPMFolded && c.C2 >= c.C5) {
				t.Errorf("%s: C2 %d, C4 %d, C5 %d, Auto picked %v", sd.Name(), c.C2, c.C4, c.C5, c.Strategy)
			}
		}
	}
	for _, kl := range [][2]int{{12, 2}, {24, 4}, {60, 4}} {
		lrc, err := codes.NewLRC(kl[0], kl[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := lrc.WorstCaseScenario(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if c := auto(lrc, sc); c.C5 != c.C4 || c.Strategy != core.StrategyPPM {
			t.Errorf("%s: C4 %d, C5 %d, Auto picked %v; want equal costs and ppm", lrc.Name(), c.C4, c.C5, c.Strategy)
		}
	}

	ingest, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := codes.NewSD(16, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := rebuild.WorstCaseScenario(rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	serve, err := ingest.WorstCaseScenario(rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		code   codes.Code
		sc     codes.Scenario
		c4, c5 int64
	}{
		{ingest, codes.EncodingScenario(ingest), 452, 392},
		{rebuild, worst, 964, 904},
		{ingest, serve, 452, 392},
	} {
		p := plan(tc.code, tc.sc)
		if c := p.Costs; c.C4 != tc.c4 || c.C5 != tc.c5 || c.Chosen != tc.c5 {
			t.Errorf("%s: C4 %d, C5 %d, chosen %d; want %d, %d, %d",
				tc.code.Name(), c.C4, c.C5, c.Chosen, tc.c4, tc.c5, tc.c5)
		}
		fd := p.Folded()
		if fd == nil {
			t.Errorf("%s %v: Auto did not fold", tc.code.Name(), tc.sc.Faulty)
			continue
		}
		fused, apart := 0, 0
		for g := range fd.Groups {
			fg := &fd.Groups[g]
			fused += len(fg.Compiled().Blocks())
			apart += len(kernel.Compile(tc.code.Field(), p.Groups[g].G).Blocks())
			if fg.Syn != nil {
				apart += len(kernel.Compile(tc.code.Field(), fg.Syn).Blocks())
			}
		}
		if fused != 15 || apart != 30 {
			t.Errorf("%s %v: folded groups compile to %d row blocks, %d with G and syndrome rows apart; want 15 and 30",
				tc.code.Name(), tc.sc.Faulty, fused, apart)
		}
	}
}

// TestFoldedPlanCannotBeSelected: a folded plan compiles only F_rest⁻¹
// of H_rest, since its own columns replace S_rest, and Select refuses
// to cut it down. The StrategyPPM plan of the same scenario, which
// repair plans select from, still can be.
func TestFoldedPlanCannotBeSelected(t *testing.T) {
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := codes.EncodingScenario(sd)
	plan, err := core.BuildPlan(sd, sc, core.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Folded() == nil {
		t.Fatal("Auto did not fold SD(8,16,2,2)'s encode")
	}
	if finv, s, g := plan.Rest.Compiled(); finv == nil || s != nil || g != nil {
		t.Fatalf("folded H_rest compiled F^-1 %v, S %v, G %v; want F^-1 alone", finv != nil, s != nil, g != nil)
	}
	wanted := []int{sc.Faulty[len(sc.Faulty)-1]}
	if sel, err := plan.Select(wanted); err == nil {
		t.Fatalf("Select cut a folded plan down to strategy %v", sel.Costs.Strategy)
	}
	c4, err := core.BuildPlan(sd, sc, core.StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Select(wanted); err != nil {
		t.Fatalf("Select of the C4 plan: %v", err)
	}
}

// TestFoldedExecuteRange: ExecuteRange of a folded plan recovers
// exactly the [lo, hi) bytes of every faulty sector, tile by tile over
// a range that starts and ends inside a tile, and leaves every other
// byte as it was.
func TestFoldedExecuteRange(t *testing.T) {
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(5)), 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(sd, sc, core.StrategyPPMFolded)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 160 << 10
	st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(9, codes.DataPositions(sd))
	if err := decode.Encode(sd, st, decode.Options{}); err != nil {
		t.Fatal(err)
	}
	work := st.Clone()
	work.Scribble(4, sc.Faulty)
	damaged := work.Clone()
	lo, hi := 32<<10+64, 128<<10-64
	var stats kernel.Stats
	if err := core.ExecuteRange(plan, work, lo, hi, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.MultXORs() != plan.Costs.Chosen {
		t.Fatalf("counted %d mult_XORs, plan predicts %d", stats.MultXORs(), plan.Costs.Chosen)
	}
	for _, c := range sc.Faulty {
		got, want, old := work.Sector(c), st.Sector(c), damaged.Sector(c)
		if !bytes.Equal(got[lo:hi], want[lo:hi]) {
			t.Fatalf("sector %d: [%d, %d) not recovered", c, lo, hi)
		}
		if !bytes.Equal(got[:lo], old[:lo]) || !bytes.Equal(got[hi:], old[hi:]) {
			t.Fatalf("sector %d: bytes outside [%d, %d) changed", c, lo, hi)
		}
	}
}
