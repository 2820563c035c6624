package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/gf"
	"ppm/internal/stripe"
)

func TestScheduleCountsAndClone(t *testing.T) {
	s := NewSchedule(1)
	s.Add(Event{Stripe: 3, Disk: 2, Kind: ReadError, Count: 2})
	for i := 0; i < 2; i++ {
		if ev := s.take(3, 2, ReadError); ev == nil {
			t.Fatalf("firing %d missing", i)
		}
	}
	if ev := s.take(3, 2, ReadError); ev != nil {
		t.Fatal("count-2 event fired a third time")
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
	// Clone resets counts, including consumed ones.
	c := s.Clone()
	if ev := c.take(3, 2, ReadError); ev == nil {
		t.Fatal("clone lost the consumed event")
	}
	// Permanent events keep firing.
	p := NewSchedule(1)
	p.Add(Event{Stripe: 0, Disk: 0, Kind: BitFlip, Count: -1})
	for i := 0; i < 5; i++ {
		if ev := p.take(0, 0, BitFlip); ev == nil {
			t.Fatalf("permanent event stopped at firing %d", i)
		}
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("seed=9, flip@2.4, read@3.2x2, hang@1.0/50ms, lat@0.1/2ms, torn@5.6")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed() != 9 || s.Len() != 5 {
		t.Fatalf("seed=%d len=%d, want 9, 5", s.Seed(), s.Len())
	}
	if ev := s.take(3, 2, ReadError); ev == nil || ev.Count != 1 {
		t.Fatalf("read@3.2x2 not parsed: %+v", ev)
	}
	if ev := s.take(1, 0, Hang); ev == nil || ev.Delay != 50*time.Millisecond {
		t.Fatalf("hang@1.0/50ms not parsed: %+v", ev)
	}
	for _, bad := range []string{"seed=x", "zap@1.2", "read@12", "read@a.b", "read@1.2/zz"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil transient")
	}
	if !IsTransient(Transient(errors.New("x"))) {
		t.Error("Transient() wrapper not transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(errors.New("x")))) {
		t.Error("wrapped transient not detected")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error transient")
	}
	if IsTransient(context.Canceled) || IsTransient(context.DeadlineExceeded) {
		t.Error("context errors must not be transient")
	}
	if !IsTransient(ErrOpTimeout) {
		t.Error("op timeout must be transient (retryable)")
	}
	if !IsTransient(&InjectedError{Event: Event{Kind: ReadError}}) {
		t.Error("injected read error must be transient")
	}
	if IsTransient(&InjectedError{Event: Event{Kind: TornWrite}}) {
		t.Error("torn write must be permanent")
	}
}

func TestDoRetriesTransient(t *testing.T) {
	calls := 0
	err := Do(context.Background(), "op", Policy{MaxAttempts: 4, BaseDelay: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil, 3", err, calls)
	}
}

func TestDoPermanentFailsFast(t *testing.T) {
	calls := 0
	perm := errors.New("gone")
	err := Do(context.Background(), "op", Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}, func() error {
		calls++
		return perm
	})
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	var oe *OpError
	if !errors.As(err, &oe) || !errors.Is(err, perm) || oe.Attempts != 1 {
		t.Fatalf("error context lost: %v", err)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	err := Do(context.Background(), "op", Policy{MaxAttempts: 3, BaseDelay: time.Microsecond}, func() error {
		calls++
		return Transient(errors.New("always"))
	})
	if calls != 3 {
		t.Fatalf("calls=%d, want 3", calls)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 3 {
		t.Fatalf("attempts not reported: %v", err)
	}
}

func TestDoAbandonsHungOp(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	err := Do(context.Background(), "hung", Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, OpTimeout: 20 * time.Millisecond}, func() error {
		<-release
		return nil
	})
	if err == nil {
		t.Fatal("hung op reported success")
	}
	if !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("want ErrOpTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced: took %v", elapsed)
	}
}

func TestDoHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Do(ctx, "op", DefaultPolicy(), func() error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Jitter: 0}
	var prev time.Duration
	for i := 0; i < 6; i++ {
		d := p.backoff(i, nil)
		if d < prev {
			t.Fatalf("backoff shrank at retry %d: %v < %v", i, d, prev)
		}
		if d > p.MaxDelay {
			t.Fatalf("backoff exceeded cap: %v", d)
		}
		prev = d
	}
	if prev != p.MaxDelay {
		t.Fatalf("backoff never reached the cap: %v", prev)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stripe.New(sd.NumStrips(), sd.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	st.FillRandom(3)
	ms := NewMemStore(st.N(), st.R()*st.SectorSize())
	if err := StoreStripe(ms, 0, st); err != nil {
		t.Fatal(err)
	}
	got := st.Clone()
	got.FillRandom(99)
	if err := LoadStripe(ms, 0, got, make([]byte, ms.StripBytes())); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(got) {
		t.Fatal("round trip corrupted the stripe")
	}
	ms.Lose(2)
	if err := ms.ReadStrip(0, 2, make([]byte, ms.StripBytes())); err == nil {
		t.Fatal("lost disk still readable")
	}
}

// TestStripLayoutPair: GatherStrip lays disk j's sectors out as
// SectorAt reads them, row i at byte i·sectorSize, and writes exactly
// r·sectorSize bytes of its buffer; ScatterStrip writes disk j's
// sectors alone, and scatter then gather returns the input. One-row
// (LRC over GF(2^32)) and four-row (SD) strips.
func TestStripLayoutPair(t *testing.T) {
	lrc, err := codes.NewLRCInField(6, 2, 2, gf.GF32)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []codes.Code{lrc, sd} {
		orig, err := stripe.New(c.NumStrips(), c.NumRows(), 64)
		if err != nil {
			t.Fatal(err)
		}
		orig.FillRandom(5)
		stripBytes := orig.R() * 64
		for j := 0; j < orig.N(); j++ {
			buf := bytes.Repeat([]byte{0xA5}, stripBytes+64)
			strip := GatherStrip(buf, orig, j)
			for i := 0; i < orig.R(); i++ {
				if !bytes.Equal(strip[i*64:(i+1)*64], orig.SectorAt(i, j)) {
					t.Fatalf("%s disk %d: row %d is not at byte %d of the strip", c.Name(), j, i, i*64)
				}
			}
			if len(strip) != stripBytes || !bytes.Equal(buf[stripBytes:], bytes.Repeat([]byte{0xA5}, 64)) {
				t.Fatalf("%s disk %d: gather returned %d bytes or wrote past r·sectorSize = %d", c.Name(), j, len(strip), stripBytes)
			}

			in := bytes.Repeat([]byte{byte(j + 1), 0x3C, 0x81}, stripBytes)[:stripBytes]
			st := orig.Clone()
			ScatterStrip(st, j, in)
			if !bytes.Equal(GatherStrip(buf, st, j), in) {
				t.Fatalf("%s disk %d: scatter then gather did not return the input", c.Name(), j)
			}
			for d := 0; d < st.N(); d++ {
				for i := 0; i < st.R() && d != j; i++ {
					if !bytes.Equal(st.SectorAt(i, d), orig.SectorAt(i, d)) {
						t.Fatalf("%s: scatter to disk %d changed sector (row %d, disk %d)", c.Name(), j, i, d)
					}
				}
			}
		}
	}
}

// TestMemStoreGrowsGeometrically: an ascending fill reallocates each
// disk's slab O(log n) times, and the written extent still bounds reads
// exactly: a stripe past it, or on a lost disk, is missing; a gap
// skipped by a later write reads as zeros.
func TestMemStoreGrowsGeometrically(t *testing.T) {
	const disks, stripes, stripBytes = 3, 1024, 64
	ms := NewMemStore(disks, stripBytes)
	strip := make([]byte, stripBytes)
	buf := make([]byte, stripBytes)
	regrows := 0
	for idx := 0; idx < stripes; idx++ {
		for j := 0; j < disks; j++ {
			strip[0], strip[1] = byte(idx), byte(j)
			var before *byte
			if len(ms.disks[j]) > 0 {
				before = &ms.disks[j][0]
			}
			if err := ms.WriteStrip(idx, j, strip); err != nil {
				t.Fatal(err)
			}
			if &ms.disks[j][0] != before {
				regrows++ // the slab moved: a reallocation and full copy
			}
		}
	}
	if limit := disks * (bits.Len(stripes) + 1); regrows > limit {
		t.Fatalf("ascending fill of %d stripes reallocated %d times, want <= %d", stripes, regrows, limit)
	}
	for _, idx := range []int{0, 511, stripes - 1} {
		if err := ms.ReadStrip(idx, 1, buf); err != nil || buf[0] != byte(idx) || buf[1] != 1 {
			t.Fatalf("stripe %d: read %v, err %v", idx, buf[:2], err)
		}
	}
	if err := ms.ReadStrip(stripes, 0, buf); err == nil {
		t.Fatal("stripe past the written extent is readable")
	}
	if err := ms.WriteStrip(stripes+2, 0, strip); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReadStrip(stripes, 0, buf); err != nil || !bytes.Equal(buf, make([]byte, stripBytes)) {
		t.Fatalf("skipped stripe: %v, err %v, want zeros", buf[:2], err)
	}
	if err := ms.ReadStrip(stripes, 1, buf); err == nil {
		t.Fatal("another disk's extent grew too")
	}
	ms.Lose(2)
	if err := ms.ReadStrip(0, 2, buf); err == nil {
		t.Fatal("lost disk still readable")
	}
}

func TestFaultyStoreInjection(t *testing.T) {
	ms := NewMemStore(4, 256)
	strip := make([]byte, 256)
	for i := range strip {
		strip[i] = byte(i)
	}
	for j := 0; j < 4; j++ {
		if err := ms.WriteStrip(0, j, strip); err != nil {
			t.Fatal(err)
		}
	}
	sched := NewSchedule(5)
	sched.Add(Event{Stripe: 0, Disk: 1, Kind: ReadError, Count: 2})
	sched.Add(Event{Stripe: 0, Disk: 2, Kind: BitFlip, Count: 1})
	sched.Add(Event{Stripe: 0, Disk: 3, Kind: TornWrite, Count: 1})
	fs := NewFaultyStore(ms, sched)

	buf := make([]byte, 256)
	// Disk 1: two transient failures, then clean.
	for i := 0; i < 2; i++ {
		err := fs.ReadStrip(0, 1, buf)
		if err == nil {
			t.Fatalf("attempt %d should fail", i)
		}
		if !IsTransient(err) {
			t.Fatalf("injected read error not transient: %v", err)
		}
	}
	if err := fs.ReadStrip(0, 1, buf); err != nil {
		t.Fatalf("event did not clear: %v", err)
	}
	// Disk 2: silent corruption — no error, wrong bytes.
	if err := fs.ReadStrip(0, 2, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == string(strip) {
		t.Fatal("bit flip did not change the bytes")
	}
	// Disk 3: torn write reports success but persists damage.
	if err := fs.WriteStrip(0, 3, strip); err != nil {
		t.Fatalf("torn write must be silent: %v", err)
	}
	if err := ms.ReadStrip(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == string(strip) {
		t.Fatal("torn write left the strip intact")
	}
	if string(buf[:128]) != string(strip[:128]) {
		t.Fatal("torn write damaged the prefix too")
	}
}

// encodeToStore encodes `stripes` random stripes of the code into a
// MemStore and returns the originals plus per-stripe checksums.
func encodeToStore(t testing.TB, c codes.Code, stripes, sectorSize int, seed int64) (*MemStore, []*stripe.Stripe, [][]uint32) {
	t.Helper()
	ms := NewMemStore(c.NumStrips(), c.NumRows()*sectorSize)
	var origs []*stripe.Stripe
	var sums [][]uint32
	for idx := 0; idx < stripes; idx++ {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		st.FillDataRandom(seed+int64(idx), codes.DataPositions(c))
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := StoreStripe(ms, idx, st); err != nil {
			t.Fatal(err)
		}
		origs = append(origs, st.Clone())
		sums = append(sums, SectorChecksums(st))
	}
	return ms, origs, sums
}

func TestHealerRecoversStorm(t *testing.T) {
	sd, err := codes.NewSD(8, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const stripes, sector = 6, 64
	ms, origs, sums := encodeToStore(t, sd, stripes, sector, 11)

	// The acceptance storm: one silent corruption, one transient read
	// error, one hung strip — plus a torn write healed from checksums.
	sched := NewSchedule(3)
	sched.Add(Event{Stripe: 1, Disk: 4, Kind: BitFlip, Count: 1})
	sched.Add(Event{Stripe: 2, Disk: 0, Kind: ReadError, Count: 1})
	sched.Add(Event{Stripe: 3, Disk: 5, Kind: Hang, Count: 1, Delay: time.Hour})
	release := make(chan struct{})
	defer close(release)
	fs := NewFaultyStore(ms, sched)
	fs.Release = release

	h := &Healer{
		Code:   sd,
		Store:  fs,
		Sums:   sums,
		Policy: Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, OpTimeout: 30 * time.Millisecond},
	}
	got, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for idx := 0; idx < stripes; idx++ {
		if err := h.ReadStripe(context.Background(), idx, got); err != nil {
			t.Fatalf("stripe %d: %v", idx, err)
		}
		if !origs[idx].Equal(got) {
			t.Fatalf("stripe %d not byte-identical after healing", idx)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("storm read did not complete within deadlines: %v", elapsed)
	}
	if h.Stats.CorruptSectors != 1 {
		t.Errorf("CorruptSectors = %d, want 1", h.Stats.CorruptSectors)
	}
	if h.Stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", h.Stats.Retries)
	}
	// The hung strip exhausted its attempts (each one re-hung... no:
	// Count 1 hang fires once; the retry reads clean). Either way the
	// stripe healed; demotion only happens if every attempt failed.
	if h.Stats.Healed < 1 {
		t.Errorf("Healed = %d, want >= 1", h.Stats.Healed)
	}
}

func TestHealerBaselinePlusCorruption(t *testing.T) {
	sd, err := codes.NewSD(8, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const stripes, sector = 3, 64
	ms, origs, sums := encodeToStore(t, sd, stripes, sector, 23)
	ms.Lose(3) // whole-disk loss: the baseline erasure

	var faulty []int
	for i := 0; i < sd.NumRows(); i++ {
		faulty = append(faulty, i*sd.NumStrips()+3)
	}
	baseline, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}

	sched := NewSchedule(4)
	sched.Add(Event{Stripe: 1, Disk: 6, Kind: BitFlip, Count: 1}) // corruption on top of the lost disk
	fs := NewFaultyStore(ms, sched)

	h := &Healer{Code: sd, Store: fs, Sums: sums, Baseline: baseline,
		Policy: Policy{MaxAttempts: 2, BaseDelay: time.Microsecond}}
	got, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	dec := core.NewDecoder(sd)
	for idx := 0; idx < stripes; idx++ {
		if err := h.ReadStripe(context.Background(), idx, got); err != nil {
			t.Fatalf("stripe %d: %v", idx, err)
		}
		// The baseline is the downstream consumer's job: run it, then
		// compare — the full contract of a degraded read.
		if err := dec.Decode(got, baseline); err != nil {
			t.Fatalf("stripe %d baseline decode: %v", idx, err)
		}
		if !origs[idx].Equal(got) {
			t.Fatalf("stripe %d not byte-identical (baseline + corruption)", idx)
		}
	}
	if h.Stats.CorruptSectors != 1 || h.Stats.Healed != 1 {
		t.Errorf("stats = %+v, want 1 corrupt, 1 healed", h.Stats)
	}
}

func TestHealerUnrecoverableReported(t *testing.T) {
	sd, err := codes.NewSD(6, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, sums := encodeToStore(t, sd, 1, 64, 31)
	// Three whole strips gone exceeds m=2 disk tolerance.
	sched := NewSchedule(1)
	for _, d := range []int{0, 1, 2} {
		sched.Add(Event{Stripe: 0, Disk: d, Kind: ReadError, Count: -1})
	}
	h := &Healer{Code: sd, Store: NewFaultyStore(ms, sched), Sums: sums,
		Policy: Policy{MaxAttempts: 2, BaseDelay: time.Microsecond}}
	st, _ := stripe.New(sd.NumStrips(), sd.NumRows(), 64)
	if err := h.ReadStripe(context.Background(), 0, st); err == nil {
		t.Fatal("unrecoverable stripe read reported success")
	}
}

// TestHealerCancelledContextSpendsNoRetries: with the context done
// before the first strip read, both read paths fail with
// context.Canceled and count no retry. DoVal reports 0 attempts there,
// which Retries used to take as -1.
func TestHealerCancelledContextSpendsNoRetries(t *testing.T) {
	sd, err := codes.NewSD(6, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, sums := encodeToStore(t, sd, 1, 64, 37)
	h := &Healer{Code: sd, Store: ms, Sums: sums, Policy: DefaultPolicy()}
	st, err := stripe.New(sd.NumStrips(), sd.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.ReadStripe(ctx, 0, st); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadStripe: got %v, want context.Canceled", err)
	}
	if err := h.ReadSectors(ctx, 0, st, []int{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadSectors: got %v, want context.Canceled", err)
	}
	if h.Stats.Retries != 0 {
		t.Fatalf("Retries = %d after two cancelled reads, want 0", h.Stats.Retries)
	}
}
