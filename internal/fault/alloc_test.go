package fault

import (
	"context"
	"sort"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// TestDegradedIOAllocFree: the degraded small-I/O path allocates
// nothing once warm. LRC(12,2,2) with 4 KiB sectors and disk 3 lost, the
// zero Policy: a live-block read, a degraded read of the lost block, a
// write's read of a block and the parities it patches, and the delta
// update itself.
func TestDegradedIOAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector, lost, live = 4 << 10, 3, 5
	ms, origs, sums := encodeToStore(t, lrc, 2, sector, 61)
	ms.Lose(lost)
	baseline, err := codes.NewScenario(lrc, []int{lost})
	if err != nil {
		t.Fatal(err)
	}
	h := &Healer{Code: lrc, Store: ms, Sums: sums, Baseline: baseline}
	st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.NewUpdater(lrc)
	if err != nil {
		t.Fatal(err)
	}
	terms, err := u.Terms(live)
	if err != nil {
		t.Fatal(err)
	}
	writeSet := []int{live}
	for _, term := range terms {
		writeSet = append(writeSet, term.Parity)
	}
	sort.Ints(writeSet)
	ctx := context.Background()

	allocFree := func(t *testing.T, what string, op func() error) {
		t.Helper()
		if err := op(); err != nil { // warm the plan cache and the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s allocates %.1f per call, want 0", what, allocs)
		}
	}
	read := func(wanted []int) func() error {
		return func() error { return h.ReadSectors(ctx, 1, st, wanted) }
	}

	t.Run("live", func(t *testing.T) {
		allocFree(t, "ReadSectors of a live block", read([]int{live}))
		if string(st.Sector(live)) != string(origs[1].Sector(live)) {
			t.Fatal("live read returned wrong bytes")
		}
	})
	t.Run("degraded", func(t *testing.T) {
		allocFree(t, "ReadSectors of the lost block", read([]int{lost}))
		if string(st.Sector(lost)) != string(origs[1].Sector(lost)) {
			t.Fatal("degraded read returned wrong bytes")
		}
	})
	t.Run("write-read", func(t *testing.T) {
		allocFree(t, "ReadSectors of a block and its parities", read(writeSet))
		for _, s := range writeSet {
			if string(st.Sector(s)) != string(origs[1].Sector(s)) {
				t.Fatalf("write's read returned wrong bytes in sector %d", s)
			}
		}
	})
	t.Run("update", func(t *testing.T) {
		content := make([]byte, sector)
		for i := range content {
			content[i] = byte(i * 31)
		}
		var stats kernel.Stats
		allocFree(t, "UpdateRange", func() error {
			return u.UpdateRange(st, live, content, 0, sector, &stats)
		})
	})
}

// TestReadStripeAllocFree: a warm ReadStripe, which wants every sector
// outside the baseline, allocates nothing either. SD(8,16,2,2) with
// 4 KiB sectors and disk 3 lost.
func TestReadStripeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector, lost = 4 << 10, 3
	ms, origs, sums := encodeToStore(t, sd, 2, sector, 67)
	ms.Lose(lost)
	var faulty []int
	for i := 0; i < sd.NumRows(); i++ {
		faulty = append(faulty, i*sd.NumStrips()+lost)
	}
	baseline, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}
	h := &Healer{Code: sd, Store: ms, Sums: sums, Baseline: baseline}
	st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := h.ReadStripe(ctx, 1, st); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := h.ReadStripe(ctx, 1, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadStripe allocates %.1f per call, want 0", allocs)
	}
	for _, s := range h.wanted {
		if string(st.Sector(s)) != string(origs[1].Sector(s)) {
			t.Fatalf("ReadStripe returned wrong bytes in sector %d", s)
		}
	}
}
