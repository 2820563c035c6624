package repair

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// encoded returns a random encoded stripe for the code.
func encoded(t *testing.T, c codes.Code, sector int, seed int64) *stripe.Stripe {
	t.Helper()
	st, err := stripe.New(c.NumStrips(), c.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(seed, codes.DataPositions(c))
	if err := core.NewDecoder(c).Encode(st); err != nil {
		t.Fatal(err)
	}
	return st
}

func scenario(t *testing.T, c codes.Code, faulty []int) codes.Scenario {
	t.Helper()
	sc, err := codes.NewScenario(c, faulty)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestLRCSingleFailureReadsLocalGroup: the heart of the minimal-read
// planner — repairing one LRC block, a data block or its local parity,
// reads its local group (k/l survivors), not the stripe, and stays
// under the 60% bytes-read gate.
func TestLRCSingleFailureReadsLocalGroup(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(lrc)
	// LRC(12,2,2): local groups of 12/2 = 6 data blocks + 1 local
	// parity. Data block 3 and local parity 12 both sit in group 0.
	for _, col := range []int{3, 12} {
		sc := scenario(t, lrc, []int{col})
		plan, err := pl.Plan(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Repairing either must read exactly the 6 other members of
		// the local group.
		if got := len(plan.ReadCols); got != 6 {
			t.Fatalf("col %d: single-failure LRC repair reads %d sectors (%v), want 6", col, got, plan.ReadCols)
		}
		if frac := plan.Cost.ReadFraction(); frac > 0.60 {
			t.Fatalf("col %d: read fraction %.2f exceeds the 0.60 gate", col, frac)
		}
		// The local-group partition is already row-minimal here, so
		// the plan is a single 1-output stage over the 6 group
		// survivors.
		if sel := plan.Selection; len(sel.Groups) != 1 || sel.Rest != nil ||
			len(sel.Groups[0].FaultyCols) != 1 || len(sel.Groups[0].SurvivorCols) != 6 {
			t.Fatalf("col %d: expected one 1x6 stage, got %d groups (rest %v): %+v",
				col, len(sel.Groups), sel.Rest != nil, sel.Groups)
		}

		st := encoded(t, lrc, 64, 1)
		want := st.Clone()
		st.Scribble(2, sc.Faulty)
		var stats kernel.Stats
		if err := plan.Execute(st, &stats); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Sector(col), want.Sector(col)) {
			t.Fatalf("col %d: repaired sector differs from original", col)
		}
		if stats.MultXORs() != plan.Cost.MultXORs {
			t.Fatalf("col %d: measured %d ops, plan predicted %d", col, stats.MultXORs(), plan.Cost.MultXORs)
		}
	}
}

// TestRSSingleFailureMinimizedRow: a one-failure RS repair uses a
// single generator row (k survivors), not the merged group closure.
func TestRSSingleFailureMinimizedRow(t *testing.T) {
	rs, err := codes.NewRS(12, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(rs)
	sc := scenario(t, rs, []int{5})
	plan, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plan.ReadCols), 8; got != want {
		t.Fatalf("RS(12,·,4) single repair reads %d sectors, want k=%d", got, want)
	}
	st := encoded(t, rs, 64, 2)
	wantSt := st.Clone()
	st.Scribble(3, sc.Faulty)
	if err := plan.Execute(st, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(5), wantSt.Sector(5)) {
		t.Fatal("repaired sector differs from original")
	}
}

// TestDegradedReadWidths pins the one-sector degraded reads that
// ppmbench's degraded experiment tabulates. With disk 2 lost, a read of
// any of its sectors reads a local group on LRC, k blocks on RS and a
// stripe row on SD, at one mult_XOR per survivor, and recovers the
// sector at exactly the predicted cost.
func TestDegradedReadWidths(t *testing.T) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := codes.NewRS(17, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const lost = 2
	for _, tc := range []struct {
		name             string
		code             codes.Code
		read, full, xors int
	}{
		{"LRC(12,3,2)", lrc, 4, 16, 4},
		{"RS(17,12)", rs, 12, 16, 12},
		{"SD(8,16,2,2)", sd, 7, 112, 7},
	} {
		n := tc.code.NumStrips()
		var faulty []int
		for i := 0; i < tc.code.NumRows(); i++ {
			faulty = append(faulty, i*n+lost)
		}
		sc := scenario(t, tc.code, faulty)
		pl := NewPlanner(tc.code)
		want := encoded(t, tc.code, 64, 5)
		for _, s := range faulty {
			plan, err := pl.Plan(sc, []int{s})
			if err != nil {
				t.Fatal(err)
			}
			if c := plan.Cost; c.ReadSectors != tc.read || c.FullReadSectors != tc.full || c.MultXORs != int64(tc.xors) {
				t.Fatalf("%s sector %d: reads %d of %d at %d mult_XORs, want %d of %d at %d",
					tc.name, s, c.ReadSectors, c.FullReadSectors, c.MultXORs, tc.read, tc.full, tc.xors)
			}
			st := want.Clone()
			st.Scribble(int64(s), sc.Faulty)
			var stats kernel.Stats
			if err := plan.Execute(st, &stats); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(st.Sector(s), want.Sector(s)) {
				t.Fatalf("%s sector %d: repaired sector differs from original", tc.name, s)
			}
			if stats.MultXORs() != plan.Cost.MultXORs {
				t.Fatalf("%s sector %d: measured %d ops, plan predicted %d", tc.name, s, stats.MultXORs(), plan.Cost.MultXORs)
			}
		}
	}
}

// TestDifferentialAgainstFullDecode: across SD/LRC/RS and random
// decodable failure sets, repair-plan outputs are byte-identical to a
// full-stripe decode on every wanted sector.
func TestDifferentialAgainstFullDecode(t *testing.T) {
	mk := func(name string, c codes.Code, err error) codes.Code {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return c
	}
	sd, err1 := codes.NewSD(8, 4, 2, 2)
	lrc, err2 := codes.NewLRC(12, 2, 2)
	rs, err3 := codes.NewRS(10, 1, 3)
	cases := []codes.Code{mk("sd", sd, err1), mk("lrc", lrc, err2), mk("rs", rs, err3)}

	rng := rand.New(rand.NewSource(99))
	for _, c := range cases {
		t.Run(c.Name(), func(t *testing.T) {
			pl := NewPlanner(c)
			total := codes.TotalSectors(c)
			for trial := 0; trial < 40; trial++ {
				nf := 1 + rng.Intn(3)
				perm := rng.Perm(total)
				sc, err := codes.NewScenario(c, perm[:nf])
				if err != nil {
					t.Fatal(err)
				}
				if !codes.Decodable(c, sc) {
					continue
				}
				wanted := []int{sc.Faulty[rng.Intn(len(sc.Faulty))]}
				plan, err := pl.Plan(sc, wanted)
				if err != nil {
					t.Fatal(err)
				}
				st := encoded(t, c, 64, int64(trial))
				want := st.Clone()
				st.Scribble(int64(trial)+7, sc.Faulty)

				// The plan must only consume survivors it declared:
				// scribble every survivor outside ReadCols too, so an
				// undeclared read corrupts the output.
				read := make(map[int]bool, len(plan.ReadCols))
				for _, col := range plan.ReadCols {
					read[col] = true
				}
				faulty := sc.FaultySet()
				var undeclared []int
				for col := 0; col < total; col++ {
					if !faulty[col] && !read[col] {
						undeclared = append(undeclared, col)
					}
				}
				st.Scribble(int64(trial)+13, undeclared)

				if err := plan.Execute(st, nil); err != nil {
					t.Fatalf("trial %d faulty %v: %v", trial, sc.Faulty, err)
				}
				for _, w := range wanted {
					if !bytes.Equal(st.Sector(w), want.Sector(w)) {
						t.Fatalf("trial %d faulty %v wanted %d: repair differs from original",
							trial, sc.Faulty, w)
					}
				}
				if len(plan.ReadCols) > plan.Cost.FullReadSectors {
					t.Fatalf("plan reads %d > full-stripe %d", len(plan.ReadCols), plan.Cost.FullReadSectors)
				}
			}
		})
	}
}

// TestExecuteRangeMatchesFull: range execution over word-aligned
// chunks reassembles to exactly the full-sector repair, both for a plan
// that repairs every faulty sector and for one that recovers a single
// wanted sector (a degraded read).
func TestExecuteRangeMatchesFull(t *testing.T) {
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(sd)
	sc := scenario(t, sd, []int{2, 9, 14})
	for _, tc := range []struct {
		name   string
		wanted []int
	}{
		{"all-faulty", nil},
		{"one-wanted", []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := pl.Plan(sc, tc.wanted)
			if err != nil {
				t.Fatal(err)
			}
			check := tc.wanted
			if check == nil {
				check = sc.Faulty
			}
			full := encoded(t, sd, 256, 5)
			want := full.Clone()
			full.Scribble(11, sc.Faulty)
			chunked := full.Clone()

			if err := plan.Execute(full, nil); err != nil {
				t.Fatal(err)
			}
			wb := sd.Field().WordBytes()
			for lo := 0; lo < 256; {
				hi := lo + 32*wb
				if hi > 256 {
					hi = 256
				}
				if err := plan.ExecuteRange(chunked, lo, hi, nil); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
			for _, f := range check {
				if !bytes.Equal(full.Sector(f), want.Sector(f)) {
					t.Fatalf("full repair of sector %d wrong", f)
				}
				if !bytes.Equal(chunked.Sector(f), full.Sector(f)) {
					t.Fatalf("chunked repair of sector %d differs from full", f)
				}
			}
		})
	}
}

// TestExecuteRangeValidation rejects out-of-bounds, empty and
// unaligned byte ranges and stripes of the wrong geometry.
func TestExecuteRangeValidation(t *testing.T) {
	sd, err := codes.NewSDInField(6, 4, 2, 1, gf.GF16) // 2-byte words
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlanner(sd).Plan(scenario(t, sd, []int{2, 9, 14}), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	st := encoded(t, sd, 64, 5)
	if err := plan.ExecuteRange(st, 0, 65, nil); err == nil {
		t.Fatal("out-of-bounds hi accepted")
	}
	if err := plan.ExecuteRange(st, 8, 8, nil); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := plan.ExecuteRange(st, 1, 64, nil); err == nil {
		t.Fatal("unaligned lo accepted")
	}
	rs, err := codes.NewRS(6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Execute(encoded(t, rs, 64, 5), nil); err == nil {
		t.Fatal("stripe of another geometry accepted")
	}
}

// TestPlannerCache: repeated plans for the same signature hit the LRU.
func TestPlannerCache(t *testing.T) {
	lrc, err := codes.NewLRC(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(lrc)
	sc := scenario(t, lrc, []int{1})
	p1, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Plan call did not return the cached plan")
	}
	if hits, misses := pl.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestExecuteAllocFree: the steady-state repair path allocates nothing
// — a full-stripe Execute, and the degraded partial read: a Plan cache
// hit for one wanted sector plus ExecuteRange over a sub-range.
func TestExecuteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(lrc)
	sc := scenario(t, lrc, []int{3})
	st := encoded(t, lrc, 4096, 17)
	var stats kernel.Stats

	t.Run("full", func(t *testing.T) {
		plan, err := pl.Plan(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Execute(st, &stats); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := plan.Execute(st, &stats); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("repair Execute allocates %.1f per run, want 0", allocs)
		}
	})

	t.Run("range", func(t *testing.T) {
		wanted := []int{3}
		p, err := pl.Plan(sc, wanted) // warm the cache
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ExecuteRange(st, 512, 1536, &stats); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			p, err := pl.Plan(sc, wanted)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ExecuteRange(st, 512, 1536, &stats); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("cached Plan + ExecuteRange allocates %.1f per run, want 0", allocs)
		}
	})
}

// TestUpdaterAllocFree: the pooled delta-update path allocates nothing
// at steady state.
func TestUpdaterAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(lrc)
	u, err := pl.Updater()
	if err != nil {
		t.Fatal(err)
	}
	st := encoded(t, lrc, 4096, 23)
	content := make([]byte, 4096)
	for i := range content {
		content[i] = byte(i * 31)
	}
	if err := u.Update(st, 2, content, nil); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := u.Update(st, 2, content, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("delta update allocates %.1f per run, want 0", allocs)
	}
}

// TestDeltaUpdateKeepsCodeword: after UpdateRange patches a sub-range,
// a fresh decode of any single erasure still reproduces the stripe —
// the delta left a valid codeword without a re-encode.
func TestDeltaUpdateKeepsCodeword(t *testing.T) {
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(sd)
	u, err := pl.Updater()
	if err != nil {
		t.Fatal(err)
	}
	st := encoded(t, sd, 256, 31)
	wb := sd.Field().WordBytes()
	lo, hi := 16*wb, 48*wb
	patch := make([]byte, hi-lo)
	for i := range patch {
		patch[i] = byte(200 - i)
	}
	dataIdx := codes.DataPositions(sd)[1]
	if err := u.UpdateRange(st, dataIdx, patch, lo, hi, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(dataIdx)[lo:hi], patch) {
		t.Fatal("data sector range not overwritten")
	}
	// Erase the patched sector and recover it purely from parity.
	want := st.Clone()
	sc := scenario(t, sd, []int{dataIdx})
	st.Scribble(41, sc.Faulty)
	if err := core.NewDecoder(sd).Decode(st, sc); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("stripe is not a valid codeword after delta update")
	}

	dc, rc, err := pl.DeltaCost(dataIdx)
	if err != nil {
		t.Fatal(err)
	}
	if dc >= rc {
		t.Fatalf("delta cost %d sectors not below re-encode %d", dc, rc)
	}
}

// TestWantedSubset: a plan for one wanted sector of a multi-failure
// scenario skips unrelated sub-decodes.
func TestWantedSubset(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(lrc)
	// Two failures in different local groups.
	sc := scenario(t, lrc, []int{1, 7})
	plan, err := pl.Plan(sc, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plan.Wanted), 1; got != want {
		t.Fatalf("wanted = %v", plan.Wanted)
	}
	full, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ReadCols) >= len(full.ReadCols) {
		t.Fatalf("subset plan reads %d sectors, full repair %d — no reduction",
			len(plan.ReadCols), len(full.ReadCols))
	}
	st := encoded(t, lrc, 64, 3)
	want := st.Clone()
	st.Scribble(19, sc.Faulty)
	if err := plan.Execute(st, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(1), want.Sector(1)) {
		t.Fatal("wanted sector not recovered")
	}
	if bytes.Equal(st.Sector(7), want.Sector(7)) {
		t.Fatal("unrelated faulty sector was decoded although not wanted")
	}
}

// TestUnrecoverableScenario surfaces ErrUnrecoverable-class failures
// as planning errors, not bad data.
func TestUnrecoverableScenario(t *testing.T) {
	rs, err := codes.NewRS(8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(rs)
	sc := scenario(t, rs, []int{0, 1, 2})
	if _, err := pl.Plan(sc, nil); err == nil {
		t.Fatal("planning 3 erasures on a 2-parity RS code succeeded")
	}
}

// TestPlannerRejectsUndecodable: an undecodable scenario fails with
// core.ErrUnrecoverable whatever the wanted set, live sectors only
// included, and is never cached, so a cached plan stands for
// decodability.
func TestPlannerRejectsUndecodable(t *testing.T) {
	rs, err := codes.NewRS(8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(rs)
	sc := scenario(t, rs, []int{0, 1, 2})
	for _, wanted := range [][]int{nil, {0}, {5}, {}} {
		for try := 0; try < 2; try++ {
			if _, err := pl.Plan(sc, wanted); !errors.Is(err, core.ErrUnrecoverable) {
				t.Fatalf("wanted %v: got %v, want core.ErrUnrecoverable", wanted, err)
			}
		}
	}
	if hits, misses := pl.CacheStats(); hits != 0 || misses != 8 {
		t.Fatalf("cache stats = %d hits / %d misses, want 0/8: a rejection was cached", hits, misses)
	}
}

// TestPlanOwnsScenario: a cached plan keeps its own copy of the
// scenario, so a caller that reuses its faulty slice cannot rewrite it,
// and ReadDisks is computed once, without allocating.
func TestPlanOwnsScenario(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(lrc)
	faulty := []int{3}
	plan, err := pl.Plan(codes.Scenario{Faulty: faulty}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	faulty[0] = 7
	if plan.Scenario.Faulty[0] != 3 {
		t.Fatalf("cached plan's scenario became %v after the caller reused its slice", plan.Scenario.Faulty)
	}
	if got, want := plan.ReadDisks(), []int{0, 1, 2, 4, 5, 12}; !slices.Equal(got, want) {
		t.Fatalf("ReadDisks = %v, want %v", got, want)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(20, func() { plan.ReadDisks() }); allocs != 0 {
			t.Fatalf("ReadDisks allocates %.1f per call, want 0", allocs)
		}
	}
}
