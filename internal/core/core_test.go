package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/stripe"
)

func paperSD(t *testing.T) *codes.SD {
	t.Helper()
	sd, err := codes.NewSDWithCoefficients(4, 4, 1, 1, gf.GF8, []uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

func paperScenario(t *testing.T, sd *codes.SD) codes.Scenario {
	t.Helper()
	sc, err := codes.NewScenario(sd, []int{2, 6, 10, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func encodedStripe(t *testing.T, c codes.Code, sectorSize int, seed int64) *stripe.Stripe {
	t.Helper()
	st, err := stripe.New(c.NumStrips(), c.NumRows(), sectorSize)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(seed, codes.DataPositions(c))
	if err := decode.Encode(c, st, decode.Options{}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return st
}

// TestLogTablePaperExample pins the log table of Figure 3.
func TestLogTablePaperExample(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	lt := BuildLogTable(sd.ParityCheck(), sc.Faulty)
	want := []LogRow{
		{Row: 0, T: 1, L: []int{2}},
		{Row: 1, T: 1, L: []int{6}},
		{Row: 2, T: 1, L: []int{10}},
		{Row: 3, T: 2, L: []int{13, 14}},
		{Row: 4, T: 5, L: []int{2, 6, 10, 13, 14}},
	}
	if len(lt.Rows) != len(want) {
		t.Fatalf("log table has %d rows", len(lt.Rows))
	}
	for i, w := range want {
		if lt.Rows[i].Row != w.Row || lt.Rows[i].T != w.T || !reflect.DeepEqual(lt.Rows[i].L, w.L) {
			t.Fatalf("row %d = %+v, want %+v", i, lt.Rows[i], w)
		}
	}
	if lt.String() == "" {
		t.Fatal("empty log table rendering")
	}
}

// TestPartitionPaperExample pins the Figure 3 partition: three singleton
// groups for b2, b6, b10; rows 3 and 4 form H_rest recovering b13, b14;
// p = 3, the paper's common case 3.2.
func TestPartitionPaperExample(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	lt := BuildLogTable(sd.ParityCheck(), sc.Faulty)
	pt := BuildPartition(lt, sc.Faulty)

	if pt.P() != 3 {
		t.Fatalf("p = %d, want 3", pt.P())
	}
	wantGroups := []Group{
		{Rows: []int{0}, FaultyCols: []int{2}},
		{Rows: []int{1}, FaultyCols: []int{6}},
		{Rows: []int{2}, FaultyCols: []int{10}},
	}
	for i, w := range wantGroups {
		if !reflect.DeepEqual(pt.Groups[i], w) {
			t.Fatalf("group %d = %+v, want %+v", i, pt.Groups[i], w)
		}
	}
	if !reflect.DeepEqual(pt.RestRows, []int{3, 4}) {
		t.Fatalf("rest rows = %v", pt.RestRows)
	}
	if !reflect.DeepEqual(pt.RestFaulty, []int{13, 14}) {
		t.Fatalf("rest faulty = %v", pt.RestFaulty)
	}
	if pt.Case() != 32 {
		t.Fatalf("case = %d, want 32", pt.Case())
	}
	if pt.String() == "" {
		t.Fatal("empty partition rendering")
	}
}

// TestCostsPaperExample pins all four §III-B costs of the worked
// example: C1 = 35, C2 = 31, C3 = 37, C4 = 29, reduction 17.14%.
func TestCostsPaperExample(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Costs
	if c.C1 != 35 || c.C2 != 31 || c.C3 != 37 || c.C4 != 29 {
		t.Fatalf("C1..C4 = %d %d %d %d, paper says 35 31 37 29", c.C1, c.C2, c.C3, c.C4)
	}
	// C4 < C2 here, so Auto resolves to PPM and the chosen cost is C4.
	if c.Strategy != StrategyPPM || c.Chosen != 29 {
		t.Fatalf("chosen = %d via %v, want 29 via ppm", c.Chosen, c.Strategy)
	}
	// Reduction (C1-C4)/C1 = 6/35 = 17.14%.
	if reduction := float64(c.C1-c.C4) / float64(c.C1); reduction < 0.171 || reduction > 0.172 {
		t.Fatalf("reduction = %.4f, want 0.1714", reduction)
	}
}

// TestExecuteMatchesChosenCost: the executor's measured mult_XORs equal
// the plan's predicted cost for every strategy.
func TestExecuteMatchesChosenCost(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	st := encodedStripe(t, sd, 64, 201)
	for _, strat := range []Strategy{
		StrategyPPM, StrategyPPMMatrixFirstRest, StrategyWholeNormal, StrategyWholeMatrixFirst, StrategyAuto,
	} {
		plan, err := BuildPlan(sd, sc, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		damaged := st.Clone()
		damaged.Scribble(7, sc.Faulty)
		var stats kernel.Stats
		if err := Execute(plan, damaged, sd.Field(), 4, &stats); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if stats.MultXORs() != plan.Costs.Chosen {
			t.Fatalf("%v: measured %d ops, plan predicted %d", strat, stats.MultXORs(), plan.Costs.Chosen)
		}
		if !damaged.Equal(st) {
			t.Fatalf("%v: wrong recovery", strat)
		}
	}
}

// TestPPMEqualsTraditional: for random worst-case scenarios across code
// families, PPM recovers exactly what the traditional decoder recovers.
func TestPPMEqualsTraditional(t *testing.T) {
	rng := rand.New(rand.NewSource(202))

	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lrc, err := codes.NewLRC(12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := codes.NewRS(8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}

	type gen func() (codes.Scenario, error)
	cases := []struct {
		code codes.Code
		gen  gen
	}{
		{sd, func() (codes.Scenario, error) { return sd.WorstCaseScenario(rng, 1+rng.Intn(2)) }},
		{lrc, func() (codes.Scenario, error) { return lrc.WorstCaseScenario(rng) }},
		{rs, func() (codes.Scenario, error) { return rs.WorstCaseScenario(rng) }},
	}
	for _, cse := range cases {
		cse := cse
		t.Run(cse.code.Name(), func(t *testing.T) {
			st := encodedStripe(t, cse.code, 32, 203)
			want := st.Clone()
			dec := NewDecoder(cse.code, WithThreads(4))
			for trial := 0; trial < 8; trial++ {
				sc, err := cse.gen()
				if err != nil {
					t.Fatal(err)
				}
				ppmSt := st.Clone()
				ppmSt.Scribble(int64(trial), sc.Faulty)
				if err := dec.Decode(ppmSt, sc); err != nil {
					t.Fatalf("ppm: %v", err)
				}
				tradSt := st.Clone()
				tradSt.Scribble(int64(trial), sc.Faulty)
				if err := decode.Decode(cse.code, tradSt, sc, decode.Options{}); err != nil {
					t.Fatalf("traditional: %v", err)
				}
				if !ppmSt.Equal(want) || !tradSt.Equal(want) {
					t.Fatalf("trial %d: recovery mismatch", trial)
				}
			}
		})
	}
}

// TestThreadCountInvariance: the recovered data is identical for every
// worker count (Figure 7 varies T; only speed may change, never bytes).
func TestThreadCountInvariance(t *testing.T) {
	sd, err := codes.NewSD(9, 8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(204))
	sc, err := sd.WorstCaseScenario(rng, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 32, 205)
	want := st.Clone()
	for _, threads := range []int{1, 2, 3, 4, 8, 16, 0} {
		dec := NewDecoder(sd, WithThreads(threads))
		damaged := st.Clone()
		damaged.Scribble(42, sc.Faulty)
		if err := dec.Decode(damaged, sc); err != nil {
			t.Fatalf("T=%d: %v", threads, err)
		}
		if !damaged.Equal(want) {
			t.Fatalf("T=%d: wrong recovery", threads)
		}
	}
}

// TestEncodeParallelism: for SD, encoding has p = r - z_c independent
// groups, where z_c is the number of stripe rows holding coding sectors
// (the paper's "p is equal to r - z" feature, §IV).
func TestEncodeParallelism(t *testing.T) {
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(sd, codes.EncodingScenario(sd), StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	// s=2 coding sectors fit in the last row: z_c = 1, p = r - 1 = 7.
	if plan.Partition.P() != 7 {
		t.Fatalf("encode p = %d, want 7", plan.Partition.P())
	}
}

func TestEncoderRoundTrip(t *testing.T) {
	sd, err := codes.NewSD(6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stripe.New(6, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(301, codes.DataPositions(sd))
	dec := NewDecoder(sd, WithThreads(4))
	if err := dec.Encode(st); err != nil {
		t.Fatal(err)
	}
	ok, err := decode.Verify(sd, st)
	if err != nil || !ok {
		t.Fatalf("PPM-encoded stripe fails parity check: ok=%v err=%v", ok, err)
	}
	// And PPM encode must agree byte-for-byte with traditional encode.
	st2, err := stripe.New(6, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	st2.FillDataRandom(301, codes.DataPositions(sd))
	if err := decode.Encode(sd, st2, decode.Options{}); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(st2) {
		t.Fatal("PPM and traditional encodes differ")
	}
}

func TestPlanReuse(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	dec := NewDecoder(sd)
	plan, err := dec.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	base := encodedStripe(t, sd, 64, 302)
	for trial := 0; trial < 3; trial++ {
		st := encodedStripe(t, sd, 64, int64(400+trial))
		want := st.Clone()
		st.Scribble(int64(trial), sc.Faulty)
		if err := dec.DecodeWithPlan(plan, st); err != nil {
			t.Fatal(err)
		}
		if !st.Equal(want) {
			t.Fatalf("trial %d: plan reuse decoded wrongly", trial)
		}
	}
	_ = base
}

func TestEmptyScenarioPlan(t *testing.T) {
	sd := paperSD(t)
	plan, err := BuildPlan(sd, codes.Scenario{}, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Costs.Chosen != 0 {
		t.Fatal("empty plan has nonzero cost")
	}
	st := encodedStripe(t, sd, 64, 303)
	want := st.Clone()
	if err := Execute(plan, st, sd.Field(), 4, nil); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("empty plan modified the stripe")
	}
}

// TestExecuteNilPlan: a nil plan or stripe is an error, never a panic,
// from Execute and from the Decoder's plan entry point.
func TestExecuteNilPlan(t *testing.T) {
	sd := paperSD(t)
	st := encodedStripe(t, sd, 64, 806)
	if err := Execute(nil, st, sd.Field(), 2, nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	plan, err := BuildPlan(sd, paperScenario(t, sd), StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	if err := Execute(plan, nil, sd.Field(), 2, nil); err == nil {
		t.Fatal("nil stripe accepted")
	}
	if err := NewDecoder(sd).DecodeWithPlan(nil, st); err == nil {
		t.Fatal("DecodeWithPlan accepted a nil plan")
	}
}

// TestExecuteEmptyPlan: nothing faulty, nothing touched — on the full
// path and on a word-aligned sub-range, at T = 1, 2 and 4.
func TestExecuteEmptyPlan(t *testing.T) {
	sd := paperSD(t)
	plan, err := BuildPlan(sd, codes.Scenario{}, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 64, 805)
	want := st.Clone()
	wb := sd.Field().WordBytes()
	for _, threads := range []int{1, 2, 4} {
		if err := Execute(plan, st, sd.Field(), threads, nil); err != nil {
			t.Fatalf("T=%d: %v", threads, err)
		}
		dec := NewDecoder(sd, WithThreads(threads))
		if err := dec.DecodeSectorsRange(st, codes.Scenario{}, nil, wb, 3*wb); err != nil {
			t.Fatalf("T=%d range: %v", threads, err)
		}
		if !st.Equal(want) {
			t.Fatalf("T=%d: empty plan touched the stripe", threads)
		}
	}
}

func TestUnrecoverablePlan(t *testing.T) {
	sd := paperSD(t)
	sc, err := codes.NewScenario(sd, []int{0, 1, 2, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyPPM, StrategyWholeNormal, StrategyAuto} {
		if _, err := BuildPlan(sd, sc, strat); !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("%v: err = %v, want ErrUnrecoverable", strat, err)
		}
	}
}

// singularGroupCode is a synthetic code whose log table produces a group
// with a singular F_i (two identical rows sharing l = {0,1}), forcing
// the demotion path.
type singularGroupCode struct {
	h *matrix.Matrix
}

func (c *singularGroupCode) Name() string                { return "singular-group" }
func (c *singularGroupCode) Field() gf.Field             { return gf.GF8 }
func (c *singularGroupCode) NumStrips() int              { return 4 }
func (c *singularGroupCode) NumRows() int                { return 1 }
func (c *singularGroupCode) ParityCheck() *matrix.Matrix { return c.h }
func (c *singularGroupCode) ParityPositions() []int      { return []int{1, 2, 3} }

func TestGroupDemotionOnSingularF(t *testing.T) {
	// Rows 0 and 1 are proportional on the faulty columns {0,1}, so the
	// candidate group's F is singular. Row 2 breaks the tie; the decode
	// must fall back to H_rest and still succeed.
	h := matrix.FromRows(gf.GF8, [][]uint32{
		{1, 1, 1, 0},
		{2, 2, 0, 1},
		{1, 2, 1, 1},
	})
	c := &singularGroupCode{h: h}
	sc := codes.Scenario{Faulty: []int{0, 1}}

	plan, err := BuildPlan(c, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 0 {
		t.Fatalf("expected demotion to leave 0 groups, got %d", len(plan.Groups))
	}
	if plan.Rest == nil {
		t.Fatal("rest missing after demotion")
	}

	// Execute against data satisfying H*B = 0. Build a codeword by
	// scalar solving for sectors {1,2,3} given sector 0.
	st, err := stripe.New(4, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(99, []int{0})
	if err := decode.Encode(c, st, decode.Options{}); err != nil {
		t.Fatal(err)
	}
	want := st.Clone()
	st.Scribble(5, sc.Faulty)
	if err := Execute(plan, st, c.Field(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("demoted plan decoded wrongly")
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{StrategyAuto, StrategyPPM, StrategyPPMMatrixFirstRest, StrategyWholeNormal, StrategyWholeMatrixFirst, Strategy(42)} {
		if s.String() == "" {
			t.Fatalf("empty name for %d", int(s))
		}
	}
}

func TestDefaultThreads(t *testing.T) {
	if got := DefaultThreads(); got < 1 || got > 4 {
		t.Fatalf("DefaultThreads = %d", got)
	}
}

func TestDecoderGeometryMismatch(t *testing.T) {
	sd := paperSD(t)
	dec := NewDecoder(sd)
	st, err := stripe.New(5, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(st, codes.Scenario{Faulty: []int{0}}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestPartitionSurplusRows: more rows sharing l than |l| — the surplus
// goes to H_rest and F_i stays square.
func TestPartitionSurplusRows(t *testing.T) {
	h := matrix.FromRows(gf.GF8, [][]uint32{
		{1, 1, 0},
		{1, 2, 0},
		{1, 3, 0},
		{0, 1, 1},
	})
	lt := BuildLogTable(h, []int{0, 1})
	pt := BuildPartition(lt, []int{0, 1})
	if pt.P() != 1 {
		t.Fatalf("p = %d, want 1", pt.P())
	}
	if len(pt.Groups[0].Rows) != 2 {
		t.Fatalf("group rows = %v, want first 2", pt.Groups[0].Rows)
	}
	if !reflect.DeepEqual(pt.RestRows, []int{2, 3}) {
		t.Fatalf("rest rows = %v", pt.RestRows)
	}
	if len(pt.RestFaulty) != 0 {
		t.Fatalf("rest faulty = %v, want none", pt.RestFaulty)
	}
}

// TestPartitionOverlapGoesToRest: a second group overlapping an already
// claimed column must not be extracted (no write races in Step 3).
func TestPartitionOverlapGoesToRest(t *testing.T) {
	h := matrix.FromRows(gf.GF8, [][]uint32{
		{1, 0, 1, 0}, // l = {0}
		{1, 1, 0, 1}, // l = {0,1}: overlaps claimed column 0
		{2, 3, 0, 1}, // l = {0,1}
	})
	faulty := []int{0, 1}
	lt := BuildLogTable(h, faulty)
	pt := BuildPartition(lt, faulty)
	if pt.P() != 1 || !reflect.DeepEqual(pt.Groups[0].FaultyCols, []int{0}) {
		t.Fatalf("partition = %+v", pt)
	}
	if !reflect.DeepEqual(pt.RestFaulty, []int{1}) {
		t.Fatalf("rest faulty = %v", pt.RestFaulty)
	}
	if !reflect.DeepEqual(pt.RestRows, []int{1, 2}) {
		t.Fatalf("rest rows = %v", pt.RestRows)
	}
}

// TestPartitionCases exercises the §III-C case taxonomy.
func TestPartitionCases(t *testing.T) {
	// Case 1: p = 0 — the rows touch distinct faulty sets and no set
	// gathers enough rows to form a group.
	h := matrix.FromRows(gf.GF8, [][]uint32{
		{1, 1, 0},
		{1, 0, 1},
	})
	pt := BuildPartition(BuildLogTable(h, []int{0, 1, 2}), []int{0, 1, 2})
	if pt.Case() != 1 {
		t.Fatalf("case = %d, want 1", pt.Case())
	}

	// Case 2: p = 1.
	h = matrix.FromRows(gf.GF8, [][]uint32{
		{1, 0, 1},
		{1, 1, 1},
	})
	pt = BuildPartition(BuildLogTable(h, []int{0, 1}), []int{0, 1})
	if pt.Case() != 2 {
		t.Fatalf("case = %d, want 2", pt.Case())
	}

	// Case 4: every faulty block independent and H_rest empty.
	h = matrix.FromRows(gf.GF8, [][]uint32{
		{1, 0, 1},
		{0, 1, 1},
	})
	pt = BuildPartition(BuildLogTable(h, []int{0, 1}), []int{0, 1})
	if pt.Case() != 4 {
		t.Fatalf("case = %d, want 4", pt.Case())
	}

	// Case 3.1: groups of size > 1, H_rest empty.
	h = matrix.FromRows(gf.GF8, [][]uint32{
		{1, 1, 0, 0, 1},
		{1, 2, 0, 0, 1},
		{0, 0, 1, 1, 1},
		{0, 0, 1, 2, 1},
	})
	pt = BuildPartition(BuildLogTable(h, []int{0, 1, 2, 3}), []int{0, 1, 2, 3})
	if pt.Case() != 31 {
		t.Fatalf("case = %d, want 31", pt.Case())
	}
}

// TestAutoFallsBackToWholeMatrixFirst: the paper observes that in ~5%
// of configurations (small n, large m) C2 < C4 and the optimiser should
// keep the whole matrix with the MatrixFirst sequence. The Figure 4
// grid puts SD n=6, m=3, s=3 in that region (C2/C1 = 0.57 < C4/C1 =
// 0.62); Auto must resolve to the C2 plan there.
func TestAutoFallsBackToWholeMatrixFirst(t *testing.T) {
	sd, err := codes.NewSD(6, 16, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(701))
	sc, err := sd.WorstCaseScenario(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(sd, sc, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Costs.C2 >= plan.Costs.C4 {
		t.Fatalf("expected C2 < C4 at n=6 m=3 s=3, got C2=%d C4=%d", plan.Costs.C2, plan.Costs.C4)
	}
	if plan.Costs.Strategy != StrategyWholeMatrixFirst {
		t.Fatalf("Auto resolved to %v, want whole-matrix-first", plan.Costs.Strategy)
	}
	if plan.Whole == nil || len(plan.Groups) != 0 {
		t.Fatal("fallback plan should be a whole-matrix plan")
	}
	// And it must still decode correctly.
	st := encodedStripe(t, sd, 32, 702)
	want := st.Clone()
	st.Scribble(3, sc.Faulty)
	var stats kernel.Stats
	if err := Execute(plan, st, sd.Field(), 4, &stats); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("fallback plan decoded wrongly")
	}
	if stats.MultXORs() != plan.Costs.C2 {
		t.Fatalf("measured %d ops, want C2 = %d", stats.MultXORs(), plan.Costs.C2)
	}
}

// TestPlanDescribe drives the Figure 3 rendering used by ppminspect.
func TestPlanDescribe(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Describe(true)
	for _, want := range []string{
		"log table", "p = 3 (case 32)", "C1 (whole, normal) = 35",
		"C4 (ppm, normal rest) = 29", "<- chosen", "17.14%",
		"Hrest", "F0^-1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
	// Whole-matrix plans render their own section.
	whole, err := BuildPlan(sd, sc, StrategyWholeNormal)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(whole.Describe(true), "whole-matrix decode") {
		t.Fatal("whole-matrix Describe incomplete")
	}
}

// TestLocalityLRCMultiRowGroups: the (r, δ) locality LRC exercises the
// log table's f > 1 group rule — δ-1 = 2 failures in a group are
// extracted as one independent 2x2 sub-matrix built from the group's
// two local parity rows.
func TestLocalityLRCMultiRowGroups(t *testing.T) {
	lrc, err := codes.NewLRCLocality(12, 3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(901))
	sc, err := lrc.WorstCaseScenario(rng)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(lrc, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	// Two groups lost exactly δ-1 = 2 blocks: extracted as f = 2
	// groups; the third group (3 failures) goes to H_rest.
	multiRow := 0
	for _, g := range plan.Partition.Groups {
		if len(g.Rows) == 2 && len(g.FaultyCols) == 2 {
			multiRow++
		}
	}
	if multiRow != 2 {
		t.Fatalf("partition %s: want two f=2 groups", plan.Partition)
	}
	if len(plan.Partition.RestFaulty) != 3 {
		t.Fatalf("rest faulty = %v, want the 3-failure group", plan.Partition.RestFaulty)
	}

	// And the decode is correct end to end.
	st := encodedStripe(t, lrc, 32, 902)
	want := st.Clone()
	st.Scribble(1, sc.Faulty)
	var stats kernel.Stats
	dec := NewDecoder(lrc, WithThreads(3), WithStats(&stats))
	if err := dec.Decode(st, sc); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("locality LRC decode wrong")
	}
	if stats.MultXORs() != plan.Costs.Chosen {
		t.Fatalf("ops %d != chosen %d", stats.MultXORs(), plan.Costs.Chosen)
	}
}
