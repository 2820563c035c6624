package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// breakSub swaps the group's effective product matrix for one with
// 1+extra surplus columns — a failing stub sub-decode. Distinct `extra`
// values give distinct validation messages, so tests can assert WHICH
// group's failure won the race. Returns the expected error text.
func breakSub(field gf.Field, sub *SubDecode, extra int) string {
	var bad *matrix.Matrix
	if sub.Seq == kernel.MatrixFirst {
		bad = matrix.New(field, sub.G.Rows(), sub.G.Cols()+1+extra)
		sub.G = bad
		sub.cG = kernel.Compile(field, bad)
	} else {
		bad = matrix.New(field, sub.S.Rows(), sub.S.Cols()+1+extra)
		sub.S = bad
		sub.cS = kernel.Compile(field, bad)
	}
	return fmt.Sprintf("core: sub-decode matrix is %dx%d against %d survivors, %d faulty",
		bad.Rows(), bad.Cols(), len(sub.SurvivorCols), len(sub.FaultyCols))
}

// brokenPlan builds a valid PPM plan with at least minGroups groups,
// then sabotages the groups listed in `breaks`. Returns the expected
// error message per broken group index.
func brokenPlan(t *testing.T, minGroups int, breaks ...int) (*Plan, *codes.SD, codes.Scenario, map[int]string) {
	t.Helper()
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 50; trial++ {
		sc, err := sd.WorstCaseScenario(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(sd, sc, StrategyPPM)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Groups) < minGroups {
			continue
		}
		msgs := make(map[int]string, len(breaks))
		for k, g := range breaks {
			msgs[g] = breakSub(sd.Field(), &plan.Groups[g], k)
		}
		return plan, sd, sc, msgs
	}
	t.Fatalf("no scenario with >= %d groups found", minGroups)
	return nil, nil, codes.Scenario{}, nil
}

// TestExecuteSerialPropagatesStubError: the serial group loop stops at
// the first failing sub-decode.
func TestExecuteSerialPropagatesStubError(t *testing.T) {
	plan, sd, sc, msgs := brokenPlan(t, 3, 1)
	st := encodedStripe(t, sd, 64, 902)
	st.Scribble(1, sc.Faulty)
	err := Execute(plan, st, sd.Field(), 1, nil)
	if err == nil || err.Error() != msgs[1] {
		t.Fatalf("got %v, want %q", err, msgs[1])
	}
}

// TestExecuteParallelPropagatesLowestGroupError: with several groups
// failing on concurrent workers, the lowest group index's error is
// returned — deterministically, every run.
func TestExecuteParallelPropagatesLowestGroupError(t *testing.T) {
	plan, sd, sc, msgs := brokenPlan(t, 4, 3, 1)
	st := encodedStripe(t, sd, 64, 903)
	for trial := 0; trial < 20; trial++ {
		damaged := st.Clone()
		damaged.Scribble(int64(trial), sc.Faulty)
		err := Execute(plan, damaged, sd.Field(), 4, nil)
		if err == nil || err.Error() != msgs[1] {
			t.Fatalf("trial %d: got %v, want group 1's error %q", trial, err, msgs[1])
		}
	}
}

// TestPartialRangePropagatesLowestGroupError: the round-robin group
// loop on a sub-range returns the lowest failing group's error, every
// run, while several selected groups fail on concurrent workers.
func TestPartialRangePropagatesLowestGroupError(t *testing.T) {
	plan, sd, sc, msgs := brokenPlan(t, 4, 2, 1)
	sel, err := plan.SelectPartial(sc.Faulty)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 64, 904)
	wb := sd.Field().WordBytes()
	for trial := 0; trial < 20; trial++ {
		damaged := st.Clone()
		damaged.Scribble(int64(trial), sc.Faulty)
		// T=2 < p: worker 0 fails on group 2, worker 1 on group 1, so
		// only per-group slots (not per-worker) report group 1.
		err := executeSpan(plan, damaged, 2, nil, &sel, wb, 64-wb)
		if err == nil || err.Error() != msgs[1] {
			t.Fatalf("trial %d: got %v, want group 1's error %q", trial, err, msgs[1])
		}
	}
}

// TestExecuteOutOfRangeColumnsBecomeErrors: a sub-decode whose column
// list exceeds the stripe surfaces as an error, not a panic.
func TestExecuteOutOfRangeColumnsBecomeErrors(t *testing.T) {
	plan, sd, sc, _ := brokenPlan(t, 2)
	sel, err := plan.SelectPartial(sc.Faulty)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 64, 907)
	st.Scribble(1, sc.Faulty)
	plan.Groups[0].FaultyCols = append([]int(nil), plan.Groups[0].FaultyCols...)
	plan.Groups[0].FaultyCols[0] = st.TotalSectors() + 5
	if err := Execute(plan, st, sd.Field(), 4, nil); err == nil ||
		!strings.Contains(err.Error(), "core: execute failed") {
		t.Fatalf("out-of-range columns not surfaced: %v", err)
	}
	wb := sd.Field().WordBytes()
	if err := executeSpan(plan, st, 2, nil, &sel, wb, 64-wb); err == nil ||
		!strings.Contains(err.Error(), "core: execute failed") {
		t.Fatalf("range path: out-of-range columns not surfaced: %v", err)
	}
}

// TestStatsUntouchedOnFailedDecode: a sub-decode that fails credits
// no mult_XORs, on the full-sector and the range path.
func TestStatsUntouchedOnFailedDecode(t *testing.T) {
	plan, sd, sc, _ := brokenPlan(t, 1, 0)
	plan.Groups = plan.Groups[:1]
	plan.Rest = nil
	sel := PartialSelection{GroupIdx: []int{0}}
	st := encodedStripe(t, sd, 64, 908)
	st.Scribble(1, sc.Faulty)
	var stats kernel.Stats
	if err := Execute(plan, st, sd.Field(), 4, &stats); err == nil {
		t.Fatal("expected error")
	}
	wb := sd.Field().WordBytes()
	if err := executeSpan(plan, st, 4, &stats, &sel, wb, 64-wb); err == nil {
		t.Fatal("expected error on the range path")
	}
	if got := stats.MultXORs(); got != 0 {
		t.Fatalf("failed decode credited %d mult_XORs", got)
	}
}
