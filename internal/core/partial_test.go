package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/kernel"
)

// TestPartialDecodeGroupOnly: reading a block recovered by an
// independent sub-matrix runs only that sub-decode (the Figure 3
// example: reading b2 costs u(G0) = 4, not C4 = 29).
func TestPartialDecodeGroupOnly(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	st := encodedStripe(t, sd, 64, 821)
	want := st.Clone()
	st.Scribble(5, sc.Faulty)

	plan, err := BuildPlan(sd, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := plan.SelectPartial([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.GroupIdx) != 1 || sel.NeedRest {
		t.Fatalf("selection = %+v, want one group and no rest", sel)
	}
	if sel.Ops != 4 { // G0 is 1x4 (b2 from the 3 survivors of row 0... plus)
		t.Logf("selection ops = %d", sel.Ops)
	}

	var stats kernel.Stats
	if err := executeSpan(plan, st, 2, &stats, &sel, 0, st.SectorSize()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(2), want.Sector(2)) {
		t.Fatal("wanted sector not recovered")
	}
	// The untouched faulty sectors must still hold scribble, proving the
	// partial decode really skipped their sub-decodes.
	if bytes.Equal(st.Sector(13), want.Sector(13)) {
		t.Fatal("rest sector was decoded although not wanted")
	}
	if stats.MultXORs() != sel.Ops {
		t.Fatalf("measured %d ops, selection predicted %d", stats.MultXORs(), sel.Ops)
	}
	if stats.MultXORs() >= plan.Costs.Chosen {
		t.Fatalf("partial decode cost %d not below full C4 %d", stats.MultXORs(), plan.Costs.Chosen)
	}
}

// TestPartialDecodeRestClosure: reading a rest block pulls in every
// group feeding H_rest (in the worked example: all three groups + rest,
// i.e. the full plan).
func TestPartialDecodeRestClosure(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := plan.SelectPartial([]int{13})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.NeedRest || len(sel.GroupIdx) != 3 {
		t.Fatalf("selection = %+v, want rest + all 3 groups", sel)
	}
	if sel.Ops != plan.Costs.Chosen {
		t.Fatalf("closure ops %d != C4 %d", sel.Ops, plan.Costs.Chosen)
	}

	st := encodedStripe(t, sd, 64, 822)
	want := st.Clone()
	st.Scribble(5, sc.Faulty)
	if err := executeSpan(plan, st, 3, nil, &sel, 0, st.SectorSize()); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("full-closure partial decode should equal full decode here")
	}
}

// TestPartialDecodeLRCDegradedRead: with one failure per local group,
// reading one lost block decodes exactly one group.
func TestPartialDecodeLRCDegradedRead(t *testing.T) {
	lrc, err := codes.NewLRC(12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One failure in each of the 4 groups: blocks 0, 3, 6, 9.
	sc, err := codes.NewScenario(lrc, []int{0, 3, 6, 9})
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, lrc, 64, 823)
	want := st.Clone()
	st.Scribble(5, sc.Faulty)

	var stats kernel.Stats
	dec := NewDecoder(lrc, WithStats(&stats))
	if err := dec.DecodeSectors(st, sc, []int{6}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(6), want.Sector(6)) {
		t.Fatal("degraded read wrong")
	}
	// Group size is 3, so the read costs exactly 3 region ops
	// (the two surviving group members plus the local parity).
	if stats.MultXORs() != 3 {
		t.Fatalf("degraded read cost %d, want 3", stats.MultXORs())
	}
	// Other groups' blocks remain scribbled.
	if bytes.Equal(st.Sector(0), want.Sector(0)) {
		t.Fatal("unrelated group was decoded")
	}
}

// TestPartialDecodeHealthyWanted: wanting a readable sector is a no-op.
func TestPartialDecodeHealthyWanted(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := plan.SelectPartial([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.GroupIdx) != 0 || sel.NeedRest || sel.Ops != 0 {
		t.Fatalf("selection for healthy sectors = %+v", sel)
	}
}

// TestPartialDecodeWholePlan: whole-matrix plans run fully.
func TestPartialDecodeWholePlan(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyWholeNormal)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := plan.SelectPartial([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 64, 824)
	want := st.Clone()
	st.Scribble(5, sc.Faulty)
	if err := executeSpan(plan, st, 2, nil, &sel, 0, st.SectorSize()); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("whole-matrix partial decode must decode everything")
	}
}

// TestPartialDecodeRandomConsistency: for random wanted subsets, every
// wanted faulty sector is recovered correctly.
func TestPartialDecodeRandomConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(825))
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 32, 826)
	want := st.Clone()
	for trial := 0; trial < 10; trial++ {
		sc, err := sd.WorstCaseScenario(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		wanted := []int{sc.Faulty[rng.Intn(len(sc.Faulty))], sc.Faulty[rng.Intn(len(sc.Faulty))]}
		work := st.Clone()
		work.Scribble(int64(trial), sc.Faulty)
		dec := NewDecoder(sd, WithThreads(3))
		if err := dec.DecodeSectors(work, sc, wanted); err != nil {
			t.Fatal(err)
		}
		for _, wIdx := range wanted {
			if !bytes.Equal(work.Sector(wIdx), want.Sector(wIdx)) {
				t.Fatalf("trial %d: wanted sector %d wrong", trial, wIdx)
			}
		}
	}
}
