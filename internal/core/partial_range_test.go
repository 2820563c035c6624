package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/kernel"
)

// TestExecuteSpanMatchesTraditional runs every plan shape through the
// executor three ways — full, one wanted sector, and a word-aligned
// sub-range of every faulty sector — at T = 1, 2 and 4. The wanted
// bytes must equal the traditional decoder's, no byte outside the range
// may change, and the measured mult_XORs must equal the selection's
// predicted Ops.
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

			const size = 256
			wb := shape.code.Field().WordBytes()
			damaged := encodedStripe(t, shape.code, size, 802)
			damaged.Scribble(3, sc.Faulty)
			trad := damaged.Clone()
			if err := decode.Decode(shape.code, trad, sc, decode.Options{}); err != nil {
				t.Fatal(err)
			}
			modes := []struct {
				name   string
				wanted []int
				lo, hi int
			}{
				{"full", sc.Faulty, 0, size},
				{"one-sector", sc.Faulty[len(sc.Faulty)/2:][:1], 0, size},
				{"sub-range", sc.Faulty, 3 * wb, size - 5*wb},
			}
			for _, mode := range modes {
				sel, err := plan.SelectPartial(mode.wanted)
				if err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 2, 4} {
					st := damaged.Clone()
					var stats kernel.Stats
					if mode.name == "full" {
						err = Execute(plan, st, shape.code.Field(), threads, &stats)
					} else {
						err = executeSpan(plan, st, threads, &stats, &sel, mode.lo, mode.hi)
					}
					if err != nil {
						t.Fatalf("%s T=%d: %v", mode.name, threads, err)
					}
					for _, c := range mode.wanted {
						if !bytes.Equal(st.Sector(c)[mode.lo:mode.hi], trad.Sector(c)[mode.lo:mode.hi]) {
							t.Fatalf("%s T=%d: sector %d differs from the traditional decoder", mode.name, threads, c)
						}
					}
					for _, c := range sc.Faulty {
						got, was := st.Sector(c), damaged.Sector(c)
						if !bytes.Equal(got[:mode.lo], was[:mode.lo]) || !bytes.Equal(got[mode.hi:], was[mode.hi:]) {
							t.Fatalf("%s T=%d: sector %d written outside [%d,%d)", mode.name, threads, c, mode.lo, mode.hi)
						}
					}
					if stats.MultXORs() != sel.Ops {
						t.Fatalf("%s T=%d: measured %d mult_XORs, selection predicted %d", mode.name, threads, stats.MultXORs(), sel.Ops)
					}
				}
			}
		})
	}
}

// TestDecodeSectorsRangeMatchesFull: chunked range-restricted degraded
// reads reassemble to exactly the full-sector partial decode.
func TestDecodeSectorsRangeMatchesFull(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	full := encodedStripe(t, sd, 256, 423)
	want := full.Clone()
	full.Scribble(9, sc.Faulty)
	chunked := full.Clone()

	wanted := []int{2}
	dec := NewDecoder(sd)
	if err := dec.DecodeSectors(full, sc, wanted); err != nil {
		t.Fatal(err)
	}
	wb := sd.Field().WordBytes()
	for lo := 0; lo < 256; {
		hi := lo + 16*wb
		if hi > 256 {
			hi = 256
		}
		if err := dec.DecodeSectorsRange(chunked, sc, wanted, lo, hi); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if !bytes.Equal(full.Sector(2), want.Sector(2)) {
		t.Fatal("full-range partial decode wrong")
	}
	if !bytes.Equal(chunked.Sector(2), full.Sector(2)) {
		t.Fatal("chunked partial decode differs from full-range")
	}
}

// TestDecodeSectorsRangeValidation rejects unaligned and out-of-bounds
// ranges.
func TestDecodeSectorsRangeValidation(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	st := encodedStripe(t, sd, 64, 5)
	dec := NewDecoder(sd)
	if err := dec.DecodeSectorsRange(st, sc, []int{2}, 0, 65); err == nil {
		t.Fatal("out-of-bounds hi accepted")
	}
	if err := dec.DecodeSectorsRange(st, sc, []int{2}, 8, 8); err == nil {
		t.Fatal("empty range accepted")
	}
	if sd.Field().WordBytes() > 1 {
		if err := dec.DecodeSectorsRange(st, sc, []int{2}, 1, 64); err == nil {
			t.Fatal("unaligned lo accepted")
		}
	}
}

// TestDecodeSectorsRangeAllocFree: with the plan and selection caches
// warm, the range-restricted degraded read allocates nothing per call.
func TestDecodeSectorsRangeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := codes.NewScenario(lrc, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, lrc, 4096, 77)
	dec := NewDecoder(lrc)
	wanted := []int{3}
	if err := dec.DecodeSectorsRange(st, sc, wanted, 0, 4096); err != nil { // warm caches + pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := dec.DecodeSectorsRange(st, sc, wanted, 0, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeSectorsRange allocates %.1f per run, want 0", allocs)
	}
}
