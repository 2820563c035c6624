package ppm

import (
	"math/rand"
	"testing"
)

// TestRepeatedDecodeAllocationFree pins the steady-state contract of
// the rebuild workload end to end: with a cached (or explicitly reused)
// plan and one thread, every per-stripe structure — compiled row
// kernels, tile view arenas, Normal-sequence scratch, executor
// sessions — comes from plan state or pools, so a repeated decode
// performs zero heap allocations even though the kernel underneath now
// sweeps the sectors tile by tile.
func TestRepeatedDecodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	sd, err := NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(42)), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 512 KiB stripe: sectors span several 32 KiB tiles, so the tiled
	// drivers run their multi-tile loops, while staying below the
	// parallel fan-out cutoff on the serial T=1 path.
	st, err := StripeForCode(sd, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(sd))
	if err := TraditionalEncode(sd, st, nil); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(sd, WithThreads(1))
	plan, err := dec.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(st, sc); err != nil { // warm plan cache and pools
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(20, func() {
		if err := dec.DecodeWithPlan(plan, st); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeWithPlan allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := dec.Decode(st, sc); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cached Decode allocates %.1f/op, want 0", avg)
	}
	// The folded plan's syndrome scratch comes from the same pools.
	folded, err := BuildPlan(sd, sc, StrategyPPMFolded)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Folded() == nil {
		t.Fatal("the worst case has no H_rest to fold")
	}
	if err := dec.DecodeWithPlan(folded, st); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := dec.DecodeWithPlan(folded, st); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeWithPlan of a folded plan allocates %.1f/op, want 0", avg)
	}
}
