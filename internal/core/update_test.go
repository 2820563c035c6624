package core

import (
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/kernel"
)

// TestUpdateKeepsCodeword: after a small write, H*B = 0 still holds and
// the stripe equals a from-scratch re-encode of the new data.
func TestUpdateKeepsCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(811))

	sd, err := codes.NewSD(6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []codes.Code{sd, lrc} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			st := encodedStripe(t, c, 32, 812)
			u, err := NewUpdater(c)
			if err != nil {
				t.Fatal(err)
			}
			dataPositions := codes.DataPositions(c)
			for trial := 0; trial < 5; trial++ {
				idx := dataPositions[rng.Intn(len(dataPositions))]
				fresh := make([]byte, st.SectorSize())
				rng.Read(fresh)
				if err := u.Update(st, idx, fresh, nil); err != nil {
					t.Fatal(err)
				}
				if !scalarCodeword(c, st) {
					t.Fatalf("trial %d: stripe invalid after update", trial)
				}
			}
			// Cross-check against a full re-encode of the same data.
			reencoded := st.Clone()
			scalarEncode(t, c, reencoded)
			if !st.Equal(reencoded) {
				t.Fatal("updated stripe differs from a fresh encode")
			}
		})
	}
}

// TestUpdateCostStructure: the update touches exactly the parities that
// cover the sector — for LRC(12,3,2) that is 1 local + 2 globals = 3.
func TestUpdateCostStructure(t *testing.T) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(lrc)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 12; d++ {
		cost, err := u.UpdateCost(d)
		if err != nil {
			t.Fatal(err)
		}
		if cost != 3 {
			t.Fatalf("block %d: update cost %d, want 3 (local + 2 globals)", d, cost)
		}
	}
	// Measured ops match the declared cost.
	st := encodedStripe(t, lrc, 32, 813)
	fresh := make([]byte, st.SectorSize())
	var stats kernel.Stats
	if err := u.Update(st, 5, fresh, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.MultXORs() != 3 {
		t.Fatalf("measured %d ops, want 3", stats.MultXORs())
	}
	// The update is far cheaper than a full re-encode: u(G) for this
	// instance is k per local group summed + dense global rows.
	plan, err := BuildPlan(lrc, codes.EncodingScenario(lrc), StrategyWholeMatrixFirst)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Costs.C2 <= 3 {
		t.Fatalf("full encode cost %d suspiciously low", plan.Costs.C2)
	}
}

func TestUpdateValidation(t *testing.T) {
	sd := paperSD(t)
	u, err := NewUpdater(sd)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 32, 814)
	fresh := make([]byte, st.SectorSize())

	// Parity sectors cannot be "updated".
	if err := u.Update(st, sd.ParityPositions()[0], fresh, nil); err == nil {
		t.Error("parity update accepted")
	}
	if _, err := u.UpdateCost(sd.ParityPositions()[0]); err == nil {
		t.Error("parity UpdateCost accepted")
	}
	// Wrong content size.
	if err := u.Update(st, 0, fresh[:8], nil); err == nil {
		t.Error("short content accepted")
	}
	// Wrong geometry.
	other := encodedStripe(t, mustSD(t, 6, 6, 2, 2), 32, 815)
	if err := u.Update(other, 0, make([]byte, other.SectorSize()), nil); err == nil {
		t.Error("mismatched stripe accepted")
	}
}

func mustSD(t *testing.T, n, r, m, s int) *codes.SD {
	t.Helper()
	sd, err := codes.NewSD(n, r, m, s)
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// TestUpdateThenDecode: a stripe maintained by small writes is fully
// recoverable afterwards.
func TestUpdateThenDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(816))
	sd := mustSD(t, 8, 8, 2, 2)
	st := encodedStripe(t, sd, 32, 817)
	u, err := NewUpdater(sd)
	if err != nil {
		t.Fatal(err)
	}
	dataPositions := codes.DataPositions(sd)
	for trial := 0; trial < 10; trial++ {
		idx := dataPositions[rng.Intn(len(dataPositions))]
		fresh := make([]byte, st.SectorSize())
		rng.Read(fresh)
		if err := u.Update(st, idx, fresh, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Clone()
	sc, err := sd.WorstCaseScenario(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Scribble(1, sc.Faulty)
	if err := NewDecoder(sd, WithThreads(4)).Decode(st, sc); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("decode after updates wrong")
	}
}
