package ppm

// Model-based stateful test: a stripe lives through a random sequence
// of small writes, silent corruptions + scrubs, and failures + decodes,
// while a mirror model tracks what the contents must be. After every
// operation the stripe must verify as a codeword and match the model.

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestStatefulRandomWalk(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 30
	}
	rng := rand.New(rand.NewSource(424242))

	code, err := NewSD(6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StripeForCode(code, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(code))
	dec := NewDecoder(code, WithThreads(3))
	if err := dec.Encode(st); err != nil {
		t.Fatal(err)
	}
	model := st.Clone() // the truth the stripe must always return to

	updater, err := NewUpdater(code)
	if err != nil {
		t.Fatal(err)
	}
	planner := NewRepairPlanner(code)
	data := DataPositions(code)

	check := func(step int, op string) {
		t.Helper()
		ok, err := Verify(code, st)
		if err != nil {
			t.Fatalf("step %d (%s): verify error: %v", step, op, err)
		}
		if !ok {
			t.Fatalf("step %d (%s): stripe is not a codeword", step, op)
		}
		if !st.Equal(model) {
			t.Fatalf("step %d (%s): stripe diverged from the model", step, op)
		}
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(4) {
		case 0: // small write via the incremental updater
			idx := data[rng.Intn(len(data))]
			fresh := make([]byte, st.SectorSize())
			rng.Read(fresh)
			if err := updater.Update(st, idx, fresh, nil); err != nil {
				t.Fatalf("step %d: update: %v", step, err)
			}
			// The model gets the same write via a full re-encode.
			copy(model.Sector(idx), fresh)
			if err := TraditionalEncode(code, model, nil); err != nil {
				t.Fatal(err)
			}
			check(step, "update")

		case 1: // silent corruption, then scrub-and-repair
			victim := rng.Intn(code.NumStrips() * code.NumRows())
			st.Sector(victim)[rng.Intn(st.SectorSize())] ^= byte(1 + rng.Intn(255))
			res, err := ScrubAndRepair(code, st, nil)
			if err != nil {
				t.Fatalf("step %d: scrub: %v", step, err)
			}
			if !res.Located || res.Sector != victim {
				t.Fatalf("step %d: scrub result %+v, victim %d", step, res, victim)
			}
			check(step, "scrub")

		case 2: // worst-case failure, full PPM decode
			sc, err := code.WorstCaseScenario(rng, 1+rng.Intn(2))
			if err != nil {
				t.Fatalf("step %d: scenario: %v", step, err)
			}
			st.Scribble(int64(step), sc.Faulty)
			if err := dec.Decode(st, sc); err != nil {
				t.Fatalf("step %d: decode: %v", step, err)
			}
			check(step, "decode")

		case 3: // partial failure, degraded read of one sector, then full repair
			sc, err := code.WorstCaseScenario(rng, 1)
			if err != nil {
				t.Fatalf("step %d: scenario: %v", step, err)
			}
			st.Scribble(int64(step), sc.Faulty)
			want := sc.Faulty[rng.Intn(len(sc.Faulty))]
			plan, err := planner.Plan(sc, []int{want})
			if err != nil {
				t.Fatalf("step %d: repair plan: %v", step, err)
			}
			if err := plan.Execute(st, nil); err != nil {
				t.Fatalf("step %d: degraded read: %v", step, err)
			}
			if !bytes.Equal(st.Sector(want), model.Sector(want)) {
				t.Fatalf("step %d: degraded read returned wrong bytes", step)
			}
			// Finish the repair so the invariant holds for the next step.
			if err := dec.Decode(st, sc); err != nil {
				t.Fatalf("step %d: full repair: %v", step, err)
			}
			check(step, "partial+repair")
		}
	}
}
