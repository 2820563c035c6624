package fault

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/stripe"
)

// TestReadSectorsMinimalRead: a clean degraded read of one lost LRC
// block fetches only its local group — far below the full stripe.
func TestReadSectorsMinimalRead(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 64
	ms, origs, sums := encodeToStore(t, lrc, 2, sector, 41)
	ms.Lose(3) // the block we will degraded-read

	h := &Healer{Code: lrc, Store: ms, Sums: sums,
		Policy: Policy{MaxAttempts: 2, BaseDelay: time.Microsecond}}
	st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ReadSectors(context.Background(), 0, st, []int{3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(3), origs[0].Sector(3)) {
		t.Fatal("degraded read returned wrong bytes")
	}
	// Minimal read: the 6 local-group survivors only (the lost strip's
	// read failure does not tick StripsRead).
	if h.Stats.StripsRead != 6 {
		t.Fatalf("StripsRead = %d, want 6 (local group)", h.Stats.StripsRead)
	}
	if h.Stats.Replans != 1 {
		t.Fatalf("Replans = %d, want 1 (lost strip discovered on first read)", h.Stats.Replans)
	}
}

// TestReadSectorsCorruptSurvivorFallsBack: the satellite chaos case —
// a degraded sector read whose minimal survivor set contains a
// silently corrupted strip must fall back to a wider survivor set and
// still return byte-identical data.
func TestReadSectorsCorruptSurvivorFallsBack(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 64
	ms, origs, sums := encodeToStore(t, lrc, 2, sector, 43)
	ms.Lose(3) // block 3 unreadable: the degraded-read target

	// Silently corrupt survivor 1 — a member of block 3's local group,
	// so the minimal plan reads it and the checksum catches it.
	sched := NewSchedule(5)
	sched.Add(Event{Stripe: 0, Disk: 1, Kind: BitFlip, Count: 1})
	fs := NewFaultyStore(ms, sched)

	var lines int
	h := &Healer{Code: lrc, Store: fs, Sums: sums,
		Policy: Policy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		Logf:   func(string, ...any) { lines++ }}
	st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ReadSectors(context.Background(), 0, st, []int{3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(3), origs[0].Sector(3)) {
		t.Fatal("degraded read with corrupt survivor returned wrong bytes")
	}
	if h.Stats.CorruptSectors != 1 {
		t.Fatalf("CorruptSectors = %d, want 1", h.Stats.CorruptSectors)
	}
	// At least two replans: the unreadable target, then the corrupt
	// survivor widening the set to the global parities.
	if h.Stats.Replans < 2 {
		t.Fatalf("Replans = %d, want >= 2 (fallback to wider survivor set)", h.Stats.Replans)
	}
	// Wider than the local group, but still not the whole array.
	if h.Stats.StripsRead <= 6 || h.Stats.StripsRead >= int64(lrc.NumStrips()) {
		t.Fatalf("StripsRead = %d, want in (6, %d)", h.Stats.StripsRead, lrc.NumStrips())
	}
	if lines == 0 {
		t.Fatal("fallback produced no degraded-read log lines")
	}
}

// TestReadSectorsUnrecoverable: damage beyond the code's tolerance is
// an error, not garbage.
func TestReadSectorsUnrecoverable(t *testing.T) {
	rs, err := codes.NewRS(6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, sums := encodeToStore(t, rs, 1, 64, 47)
	ms.Lose(0)
	ms.Lose(1)
	ms.Lose(2)
	h := &Healer{Code: rs, Store: ms, Sums: sums,
		Policy: Policy{MaxAttempts: 2, BaseDelay: time.Microsecond}}
	st, _ := stripe.New(rs.NumStrips(), rs.NumRows(), 64)
	if err := h.ReadSectors(context.Background(), 0, st, []int{0}); err == nil {
		t.Fatal("unrecoverable degraded read reported success")
	}
}

// TestReadSectorsLiveSector: reading a healthy sector fetches just its
// strip — no plan, no decode.
func TestReadSectorsLiveSector(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, origs, sums := encodeToStore(t, lrc, 1, 64, 53)
	h := &Healer{Code: lrc, Store: ms, Sums: sums,
		Policy: Policy{MaxAttempts: 2, BaseDelay: time.Microsecond}}
	st, _ := stripe.New(lrc.NumStrips(), lrc.NumRows(), 64)
	if err := h.ReadSectors(context.Background(), 0, st, []int{5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Sector(5), origs[0].Sector(5)) {
		t.Fatal("live sector read returned wrong bytes")
	}
	if h.Stats.StripsRead != 1 {
		t.Fatalf("StripsRead = %d, want 1", h.Stats.StripsRead)
	}
	if h.Stats.Replans != 0 {
		t.Fatalf("Replans = %d, want 0", h.Stats.Replans)
	}
}

// TestReadSectorsWantedOutOfRange: a wanted index outside the stripe
// fails before the first read. 19 on this 16-strip, one-row code names
// the lost disk 3 modulo n: a healer that took it for a sector would
// re-read, demote and replan that disk until its context ended.
func TestReadSectorsWantedOutOfRange(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, sums := encodeToStore(t, lrc, 1, 64, 59)
	ms.Lose(3)
	h := &Healer{Code: lrc, Store: ms, Sums: sums}
	st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{19, -1, 16} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := h.ReadSectors(ctx, 0, st, []int{w})
		cancel()
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("wanted [%d]: got %v, want an out-of-range error", w, err)
		}
	}
	if h.Stats.StripsRead != 0 || h.Stats.DemotedStrips != 0 {
		t.Fatalf("stats = %+v, want no strip read or demoted", h.Stats)
	}
}

// TestHealerRejectsGeometry: a stripe whose shape does not match the
// code or the store's strips is an error from both read paths, before
// any strip is read: no panic, no checksum failure, no partial read.
func TestHealerRejectsGeometry(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, sums := encodeToStore(t, lrc, 1, 64, 67)
	for _, g := range []struct {
		name         string
		n, r, sector int
	}{
		{"128-byte sectors", 16, 1, 128},
		{"2 rows", 16, 2, 64},
		{"32-byte sectors", 16, 1, 32},
		{"12 strips", 12, 1, 64},
	} {
		t.Run(g.name, func(t *testing.T) {
			st, err := stripe.New(g.n, g.r, g.sector)
			if err != nil {
				t.Fatal(err)
			}
			h := &Healer{Code: lrc, Store: ms, Sums: sums}
			if err := h.ReadSectors(context.Background(), 0, st, []int{0}); err == nil {
				t.Error("ReadSectors accepted the stripe")
			}
			if err := h.ReadStripe(context.Background(), 0, st); err == nil {
				t.Error("ReadStripe accepted the stripe")
			}
			if h.Stats != (HealStats{}) {
				t.Errorf("stats = %+v, want none", h.Stats)
			}
		})
	}
}

// TestHealerRejectsBaselineOutOfRange: a baseline sector outside the
// code is an error from both read paths, not an index panic in the
// per-sector scratch.
func TestHealerRejectsBaselineOutOfRange(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, sums := encodeToStore(t, lrc, 1, 64, 73)
	st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{-1, 16} {
		h := &Healer{Code: lrc, Store: ms, Sums: sums, Baseline: codes.Scenario{Faulty: []int{s}}}
		if err := h.ReadSectors(context.Background(), 0, st, []int{0}); err == nil {
			t.Errorf("baseline [%d]: ReadSectors succeeded", s)
		}
		if err := h.ReadStripe(context.Background(), 0, st); err == nil {
			t.Errorf("baseline [%d]: ReadStripe succeeded", s)
		}
	}
}

// TestOneRowStripReadInPlace: a one-row strip (LRC) is read straight
// into its sector. A strip whose read fails and one whose bytes come
// back flipped are still demoted and healed byte-identically, through
// ReadSectors and ReadStripe, and the healer's strip buffer is never
// written.
func TestOneRowStripReadInPlace(t *testing.T) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector, lost, unreadable, flipped = 4 << 10, 3, 5, 7
	ms, origs, sums := encodeToStore(t, lrc, 2, sector, 44)
	ms.Lose(lost)
	baseline, err := codes.NewScenario(lrc, []int{lost})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ReadSectors", "ReadStripe"} {
		t.Run(name, func(t *testing.T) {
			sched := NewSchedule(9)
			sched.Add(Event{Stripe: 1, Disk: unreadable, Kind: ReadError, Count: 1})
			sched.Add(Event{Stripe: 1, Disk: flipped, Kind: BitFlip, Count: 1})
			h := &Healer{Code: lrc, Store: NewFaultyStore(ms, sched), Sums: sums, Baseline: baseline}
			st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), sector)
			if err != nil {
				t.Fatal(err)
			}
			wanted := []int{unreadable, flipped}
			if name == "ReadSectors" {
				err = h.ReadSectors(context.Background(), 1, st, wanted)
			} else {
				err = h.ReadStripe(context.Background(), 1, st)
				for s := 0; s < st.TotalSectors(); s++ {
					if s != lost {
						wanted = append(wanted, s)
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range wanted {
				if !bytes.Equal(st.Sector(s), origs[1].Sector(s)) {
					t.Fatalf("sector %d differs from the encoded stripe", s)
				}
			}
			if h.Stats.DemotedStrips != 1 || h.Stats.CorruptSectors != 1 || h.Stats.Healed != 1 {
				t.Fatalf("stats %+v, want 1 demoted strip, 1 corrupt sector, 1 healed stripe", h.Stats)
			}
			if !bytes.Equal(h.buf, make([]byte, len(h.buf))) {
				t.Fatal("a one-row strip went through the strip buffer")
			}
		})
	}
}

// countingStore counts strip reads per disk.
type countingStore struct {
	Store
	reads []int
}

func (c *countingStore) ReadStrip(idx, disk int, dst []byte) error {
	c.reads[disk]++
	return c.Store.ReadStrip(idx, disk, dst)
}

// TestReadStripeSharedLoop: ReadStripe is the read loop wanting every
// sector outside the baseline. A strip that is baseline throughout is
// never read and comes back zeroed, but for sectors a heal's plan
// recovers in passing; a strip that is baseline only in part is read,
// and a flipped sector in it heals byte-identically; and StripsRead and
// Replans count ReadStripe's work.
func TestReadStripeSharedLoop(t *testing.T) {
	sd, err := codes.NewSD(8, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector, lost, partDisk = 64, 3, 5
	ms, origs, sums := encodeToStore(t, sd, 2, sector, 79)
	ms.Lose(lost)
	n, r := sd.NumStrips(), sd.NumRows()
	// Disk 3 is baseline throughout; disk 5 only in row 1. Stripe 1
	// holds a flipped byte in row 2 of disk 5.
	faulty := []int{1*n + partDisk}
	for i := 0; i < r; i++ {
		faulty = append(faulty, i*n+lost)
	}
	baseline, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}
	strip := make([]byte, ms.StripBytes())
	if err := ms.ReadStrip(1, partDisk, strip); err != nil {
		t.Fatal(err)
	}
	strip[2*sector] ^= 0x40
	if err := ms.WriteStrip(1, partDisk, strip); err != nil {
		t.Fatal(err)
	}

	cs := &countingStore{Store: ms, reads: make([]int, n)}
	h := &Healer{Code: sd, Store: cs, Sums: sums, Baseline: baseline}
	st, err := stripe.New(n, r, sector)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, st.TotalSectors())
	for s := range all {
		all[s] = s
	}
	base := baseline.FaultySet()
	dec := core.NewDecoder(sd)
	for idx, want := range []HealStats{
		{Stripes: 1, StripsRead: 7},
		{Stripes: 2, StripsRead: 14, CorruptSectors: 1, Healed: 1, Replans: 1},
	} {
		st.Scribble(int64(idx), all)
		if err := h.ReadStripe(context.Background(), idx, st); err != nil {
			t.Fatalf("stripe %d: %v", idx, err)
		}
		for i := 0; i < r; i++ {
			s := st.SectorAt(i, lost)
			healed := idx == 1 && bytes.Equal(s, origs[idx].SectorAt(i, lost))
			if !healed && !bytes.Equal(s, make([]byte, sector)) {
				t.Fatalf("stripe %d: row %d of the baseline strip is neither zeroed nor healed", idx, i)
			}
		}
		for s := range all {
			if !base[s] && !bytes.Equal(st.Sector(s), origs[idx].Sector(s)) {
				t.Fatalf("stripe %d: sector %d differs from the encoded stripe", idx, s)
			}
		}
		if err := dec.Decode(st, baseline); err != nil {
			t.Fatalf("stripe %d baseline decode: %v", idx, err)
		}
		if !origs[idx].Equal(st) {
			t.Fatalf("stripe %d not byte-identical after the baseline decode", idx)
		}
		if h.Stats != want {
			t.Fatalf("stripe %d: stats %+v, want %+v", idx, h.Stats, want)
		}
	}
	if cs.reads[lost] != 0 {
		t.Fatalf("the baseline strip was read %d times", cs.reads[lost])
	}
}
