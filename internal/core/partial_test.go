package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/kernel"
)

// selectionOps is the predicted mult_XORs of running a selection,
// recomputed from its sub-decodes.
func selectionOps(sel *Plan) int64 {
	ops := sel.Rest.ops()
	for i := range sel.Groups {
		ops += sel.Groups[i].ops()
	}
	return ops
}

// TestPartialDecodeGroupOnly: reading a block recovered by an
// independent sub-matrix selects only that sub-decode (the Figure 3
// example: reading b2 costs u(G0), not C4 = 29).
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
	sel, err := plan.Select([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Groups) != 1 || sel.Rest != nil {
		t.Fatalf("selection = %d groups, rest %v; want one group and no rest", len(sel.Groups), sel.Rest != nil)
	}
	if sel.Costs.Chosen != selectionOps(sel) {
		t.Fatalf("selection predicts %d ops, its sub-decodes hold %d", sel.Costs.Chosen, selectionOps(sel))
	}

	var stats kernel.Stats
	if err := Execute(sel, st, sd.Field(), 2, &stats); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(2), want.Sector(2)) {
		t.Fatal("wanted sector not recovered")
	}
	// The untouched faulty sectors must still hold scribble, proving the
	// selection really skipped their sub-decodes.
	if bytes.Equal(st.Sector(13), want.Sector(13)) {
		t.Fatal("rest sector was decoded although not wanted")
	}
	if got, want := stats.MultXORs(), selectionOps(sel); got != want {
		t.Fatalf("measured %d ops, selection predicted %d", got, want)
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
	sel, err := plan.Select([]int{13})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Rest == nil || len(sel.Groups) != 3 {
		t.Fatalf("selection = %d groups, rest %v; want rest + all 3 groups", len(sel.Groups), sel.Rest != nil)
	}
	if ops := selectionOps(sel); ops != plan.Costs.Chosen || sel.Costs.Chosen != ops {
		t.Fatalf("closure ops %d (predicted %d) != C4 %d", ops, sel.Costs.Chosen, plan.Costs.Chosen)
	}

	st := encodedStripe(t, sd, 64, 822)
	want := st.Clone()
	st.Scribble(5, sc.Faulty)
	if err := Execute(sel, st, sd.Field(), 3, nil); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("full-closure partial decode should equal full decode here")
	}
}

// TestPartialDecodeLRCDegradedRead: with one failure per local group,
// reading one lost block selects exactly one group.
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

	plan, err := BuildPlan(lrc, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := plan.Select([]int{6})
	if err != nil {
		t.Fatal(err)
	}
	var stats kernel.Stats
	if err := Execute(sel, st, lrc.Field(), 1, &stats); err != nil {
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

// TestPartialDecodeHealthyWanted: wanting a readable sector selects
// nothing.
func TestPartialDecodeHealthyWanted(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := plan.Select([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Groups) != 0 || sel.Rest != nil || sel.Costs.Chosen != 0 {
		t.Fatalf("selection for healthy sectors = %d groups, rest %v, %d ops", len(sel.Groups), sel.Rest != nil, sel.Costs.Chosen)
	}
}

// TestPartialDecodeWholePlan: a whole-matrix plan has no sub-decodes
// to select, so a wanted faulty sector is an error; a healthy one still
// selects nothing.
func TestPartialDecodeWholePlan(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	plan, err := BuildPlan(sd, sc, StrategyWholeNormal)
	if err != nil {
		t.Fatal(err)
	}
	if sel, err := plan.Select([]int{2}); err == nil {
		t.Fatalf("whole-matrix plan selected %+v for a faulty sector", sel)
	}
	if sel, err := plan.Select([]int{0}); err != nil || len(sel.Groups) != 0 || sel.Rest != nil || sel.Whole != nil {
		t.Fatalf("healthy sector on a whole-matrix plan: %+v, %v", sel, err)
	}
}

// TestPartialDecodeRandomConsistency: for random wanted subsets,
// running only the selected sub-decodes recovers every wanted faulty
// sector correctly.
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
		plan, err := BuildPlan(sd, sc, StrategyPPM)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := plan.Select(wanted)
		if err != nil {
			t.Fatal(err)
		}
		work := st.Clone()
		work.Scribble(int64(trial), sc.Faulty)
		if err := Execute(sel, work, sd.Field(), 3, nil); err != nil {
			t.Fatal(err)
		}
		for _, wIdx := range wanted {
			if !bytes.Equal(work.Sector(wIdx), want.Sector(wIdx)) {
				t.Fatalf("trial %d: wanted sector %d wrong", trial, wIdx)
			}
		}
	}
}
