package ppm

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestPublicAPIRoundTrip drives the README quick-start path end to end:
// construct, encode, fail, decode, verify.
func TestPublicAPIRoundTrip(t *testing.T) {
	code, err := NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StripeForCode(code, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(code))

	dec := NewDecoder(code, WithThreads(4))
	if err := dec.Encode(st); err != nil {
		t.Fatal(err)
	}
	ok, err := Verify(code, st)
	if err != nil || !ok {
		t.Fatalf("verify after encode: ok=%v err=%v", ok, err)
	}
	want := st.Clone()

	rng := rand.New(rand.NewSource(2))
	sc, err := code.WorstCaseScenario(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Erase(sc.Faulty)
	if err := dec.Decode(st, sc); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("decode did not restore the stripe")
	}
}

// TestPublicAPIAgainstTraditional checks that the exported baseline and
// PPM agree for every code constructor.
func TestPublicAPIAgainstTraditional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	sd, err := NewSD(6, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pmds, err := NewPMDS(6, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lrc, err := NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRS(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		code Code
		gen  func() (Scenario, error)
	}{
		{sd, func() (Scenario, error) { return sd.WorstCaseScenario(rng, 1) }},
		{pmds, func() (Scenario, error) { return pmds.WorstCaseScenario(rng, 1) }},
		{lrc, func() (Scenario, error) { return lrc.WorstCaseScenario(rng) }},
		{rs, func() (Scenario, error) { return rs.WorstCaseScenario(rng) }},
	} {
		tc := tc
		t.Run(tc.code.Name(), func(t *testing.T) {
			st, err := StripeForCode(tc.code, 64<<10)
			if err != nil {
				t.Fatal(err)
			}
			st.FillDataRandom(7, DataPositions(tc.code))
			if err := TraditionalEncode(tc.code, st, nil); err != nil {
				t.Fatal(err)
			}
			want := st.Clone()

			sc, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			ppmSt := st.Clone()
			ppmSt.Scribble(1, sc.Faulty)
			if err := NewDecoder(tc.code).Decode(ppmSt, sc); err != nil {
				t.Fatal(err)
			}
			tradSt := st.Clone()
			tradSt.Scribble(1, sc.Faulty)
			if err := TraditionalDecode(tc.code, tradSt, sc, nil); err != nil {
				t.Fatal(err)
			}
			if !ppmSt.Equal(want) || !tradSt.Equal(want) {
				t.Fatal("recovery mismatch")
			}
		})
	}
}

// TestPublicAPIPlanInspection: plans expose the paper's cost model.
func TestPublicAPIPlanInspection(t *testing.T) {
	code, err := NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sc, err := code.WorstCaseScenario(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(code, sc, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Costs
	if c.C4 >= c.C1 {
		t.Fatalf("C4 = %d not below C1 = %d", c.C4, c.C1)
	}
	if plan.Partition.P() < 2 {
		t.Fatalf("p = %d; worst case should expose parallelism", plan.Partition.P())
	}
	// Stats audit: a PPM decode performs exactly Chosen mult_XORs.
	st, err := StripeForCode(code, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(code))
	if err := TraditionalEncode(code, st, nil); err != nil {
		t.Fatal(err)
	}
	st.Erase(sc.Faulty)
	var stats Stats
	dec := NewDecoder(code, WithStats(&stats), WithStrategy(StrategyPPM))
	if err := dec.Decode(st, sc); err != nil {
		t.Fatal(err)
	}
	ppmPlan, err := BuildPlan(code, sc, StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MultXORs() != ppmPlan.Costs.Chosen {
		t.Fatalf("measured %d ops, plan predicts %d", stats.MultXORs(), ppmPlan.Costs.Chosen)
	}
}

func TestFieldForAPI(t *testing.T) {
	cases := []struct{ sectors, want int }{
		{64, 8}, {255, 8}, {256, 16}, {70000, 32},
	}
	for _, c := range cases {
		w, err := FieldFor(c.sectors)
		if err != nil {
			t.Fatal(err)
		}
		if w != c.want {
			t.Fatalf("FieldFor(%d) = %d, want %d", c.sectors, w, c.want)
		}
	}
	if _, err := FieldFor(-1); err == nil {
		t.Fatal("negative sectors accepted")
	}
}

func TestNewScenarioAPI(t *testing.T) {
	code, err := NewSD(6, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScenario(code, []int{999}); err == nil {
		t.Fatal("out-of-range scenario accepted")
	}
	sc, err := NewScenario(code, []int{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !Decodable(code, sc) {
		t.Fatal("two-sector scenario should be decodable")
	}
}

// TestChecksumAPIDetectsAndHeals exercises the public integrity surface:
// record checksums, flip a bit, locate the damage, heal it by decode.
func TestChecksumAPIDetectsAndHeals(t *testing.T) {
	code, err := NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StripeForCode(code, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(3, DataPositions(code))
	dec := NewDecoder(code)
	if err := dec.Encode(st); err != nil {
		t.Fatal(err)
	}
	sums := SectorChecksums(st)
	if got := VerifyStripeChecksums(st, sums); got != nil {
		t.Fatalf("clean stripe reported corrupt sectors %v", got)
	}
	want := st.Clone()

	st.FlipBit(7, 11, 2)
	corrupt := VerifyStripeChecksums(st, sums)
	if len(corrupt) != 1 || corrupt[0] != 7 {
		t.Fatalf("corrupt sectors = %v, want [7]", corrupt)
	}
	st.Erase(corrupt)
	if err := dec.Decode(st, Scenario{Faulty: corrupt}); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("healed stripe differs from the original")
	}
}

// TestErrEnginePoisonedExported pins the exported sentinel a stream
// run wraps once a compute shard has died.
func TestErrEnginePoisonedExported(t *testing.T) {
	if ErrEnginePoisoned == nil {
		t.Fatal("ErrEnginePoisoned must be non-nil")
	}
}

// TestRepairAPIMinimalRead drives the exported repair surface: plan a
// single LRC failure, check the read set is the local group, execute,
// then recover a byte sub-range of the sector through the cached plan.
func TestRepairAPIMinimalRead(t *testing.T) {
	code, err := NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStripe(code.NumStrips(), code.NumRows(), 256)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(code))
	dec := NewDecoder(code)
	if err := dec.Encode(st); err != nil {
		t.Fatal(err)
	}
	want := st.Clone()

	sc, err := NewScenario(code, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	planner := NewRepairPlanner(code)
	plan, err := planner.Plan(sc, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Cost.ReadFraction(); got > 0.60 {
		t.Fatalf("ReadFraction = %.2f, want <= 0.60 (local-group repair)", got)
	}
	st.Scribble(2, sc.Faulty)
	if err := plan.Execute(st, nil); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("repair plan did not restore the stripe")
	}

	// Range-restricted degraded read: a cache hit for the same plan,
	// executed over a byte sub-range only.
	st.Scribble(3, sc.Faulty)
	again, err := planner.Plan(sc, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if again != plan {
		t.Fatal("repeated Plan did not hit the planner cache")
	}
	if err := again.ExecuteRange(st, 64, 192, nil); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 192; i++ {
		if st.Sector(3)[i] != want.Sector(3)[i] {
			t.Fatalf("byte %d of wanted sector not recovered", i)
		}
	}
}

// TestInvalidFaultyListsRejected drives every public entry point that
// takes a Scenario with faulty lists no codes.NewScenario would build:
// an index below the stripe, at n·r, far past it, and a repeat. Each
// call returns an error (Decodable returns false); none panics and none
// returns nil having decoded nothing.
func TestInvalidFaultyListsRejected(t *testing.T) {
	code, err := NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 64
	total := code.NumStrips() * code.NumRows()
	stripeFor := func(t *testing.T) *Stripe {
		st, err := NewStripe(code.NumStrips(), code.NumRows(), sector)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	entries := []struct {
		name string
		call func(t *testing.T, sc Scenario) error
	}{
		{"Decoder.Decode", func(t *testing.T, sc Scenario) error {
			return NewDecoder(code).Decode(stripeFor(t), sc)
		}},
		{"BuildPlan", func(t *testing.T, sc Scenario) error {
			_, err := BuildPlan(code, sc, StrategyPPM)
			return err
		}},
		{"RepairPlanner.Plan", func(t *testing.T, sc Scenario) error {
			_, err := NewRepairPlanner(code).Plan(sc, nil)
			return err
		}},
		{"Decodable", func(t *testing.T, sc Scenario) error {
			if Decodable(code, sc) {
				return nil
			}
			return errors.New("not decodable")
		}},
		{"NewStreamEngine", func(t *testing.T, sc Scenario) error {
			e, err := NewStreamEngine(code, sc, sector, StreamConfig{})
			if e != nil {
				e.Close()
			}
			return err
		}},
		{"NewStreamPool", func(t *testing.T, sc Scenario) error {
			p, err := NewStreamPool(code, sc, sector, 2, StreamConfig{})
			if p != nil {
				p.Close()
			}
			return err
		}},
		{"DecodeBatch", func(t *testing.T, sc Scenario) error {
			return DecodeBatch(code, sc, []*Stripe{stripeFor(t)}, StreamConfig{})
		}},
		{"DecodeStream", func(t *testing.T, sc Scenario) error {
			image := make([]byte, total*sector)
			_, err := DecodeStream(code, io.Discard, bytes.NewReader(image), sc, -1, sector, StreamConfig{})
			return err
		}},
		{"TraditionalDecode", func(t *testing.T, sc Scenario) error {
			return TraditionalDecode(code, stripeFor(t), sc, nil)
		}},
		{"BlockParallelDecode", func(t *testing.T, sc Scenario) error {
			return BlockParallelDecode(code, stripeFor(t), sc, 2, nil)
		}},
	}
	lists := []struct {
		name   string
		faulty []int
	}{
		{"negative", []int{-1}},
		{"n*r", []int{total}},
		{"n*r+100", []int{total + 100}},
		{"repeat", []int{3, 3}},
	}
	for _, e := range entries {
		for _, l := range lists {
			t.Run(e.name+"/"+l.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("faulty %v panicked: %v", l.faulty, r)
					}
				}()
				if err := e.call(t, Scenario{Faulty: l.faulty}); err == nil {
					t.Fatalf("faulty %v accepted", l.faulty)
				}
			})
		}
	}
}
