package fault

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// FuzzReadSectors drives one Healer through a sequence of ReadSectors
// calls over a damaged store. The input picks the code (LRC(12,2,2) or
// SD(8,4,2,2)) and sector size, the lost disks, the flipped sectors,
// the baseline, the retry policy and the wanted sets (any ints, out of
// range included). Every call must return without panicking or hitting
// its deadline; a successful call must return the golden bytes of every
// wanted sector; and a call whose indices are in range over decodable
// total damage must succeed. Reusing one Healer is what exposes scratch
// state leaking from one call into the next. (Runs its seed corpus
// under plain `go test`; explore with `go test -fuzz FuzzReadSectors`.)
func FuzzReadSectors(f *testing.F) {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	sd, err := codes.NewSD(8, 4, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	const stripes = 3
	sectorSizes := []int{16, 32, 64}
	type golden struct {
		code   codes.Code
		sector int
		origs  []*stripe.Stripe
		sums   [][]uint32
	}
	var fixtures []golden
	for _, c := range []codes.Code{lrc, sd} {
		for i, sector := range sectorSizes {
			_, origs, sums := encodeToStore(f, c, stripes, sector, int64(71+i))
			fixtures = append(fixtures, golden{c, sector, origs, sums})
		}
	}

	// Disk 3 lost, no baseline, out-of-range wanted sets; 19 names
	// disk 3 modulo 16.
	f.Add(uint8(0), uint16(1<<3), uint32(0), uint8(0), []byte{}, []byte{0, 1, 19, 0, 1, 0xFF, 0, 1, 16, 0, 1, 3})
	// Disk 3 lost as the baseline, a flipped survivor in its local group.
	f.Add(uint8(2), uint16(1<<3), uint32(1<<3), uint8(0), []byte{1, 1}, []byte{1, 1, 3, 1, 2, 5, 14, 2, 1, 3})
	// SD: two disks and a sector lost, hung-read policy, several sets.
	f.Add(uint8(5), uint16(1<<1|1<<6), uint32(1<<9), uint8(1), []byte{0, 20, 2, 3}, []byte{0, 2, 1, 9, 2, 3, 6, 14, 22, 30, 0, 0})
	// Beyond tolerance.
	f.Add(uint8(3), uint16(0x0F), uint32(0), uint8(0), []byte{}, []byte{0, 1, 0, 0, 1, 8})

	f.Fuzz(func(t *testing.T, sel uint8, lost uint16, base uint32, policy uint8, flips, calls []byte) {
		g := fixtures[int(sel)%len(fixtures)]
		c := g.code
		n, total := c.NumStrips(), codes.TotalSectors(c)

		// The store: the golden stripes, flipped sectors, lost disks.
		ms := NewMemStore(n, c.NumRows()*g.sector)
		for idx, st := range g.origs {
			if err := StoreStripe(ms, idx, st); err != nil {
				t.Fatal(err)
			}
		}
		damaged := make([][]bool, stripes)
		for idx := range damaged {
			damaged[idx] = make([]bool, total)
		}
		rng := rand.New(rand.NewSource(int64(len(flips))))
		strip := make([]byte, ms.StripBytes())
		for i := 0; i+1 < len(flips) && i < 16; i += 2 {
			idx, s := int(flips[i])%stripes, int(flips[i+1])%total
			if err := ms.ReadStrip(idx, s%n, strip); err != nil {
				t.Fatal(err)
			}
			off := s / n * g.sector
			FlipByte(strip[off:off+g.sector], rng)
			if err := ms.WriteStrip(idx, s%n, strip); err != nil {
				t.Fatal(err)
			}
			damaged[idx][s] = true
		}
		var baseline codes.Scenario
		for s := 0; s < total; s++ {
			if base&(1<<s) != 0 {
				baseline.Faulty = append(baseline.Faulty, s)
			}
		}
		for j := 0; j < n; j++ {
			if lost&(1<<j) == 0 {
				continue
			}
			ms.Lose(j)
			for s := j; s < total; s += n {
				for idx := range damaged {
					damaged[idx][s] = true
				}
			}
		}

		h := &Healer{Code: c, Store: ms, Sums: g.sums, Baseline: baseline}
		if policy&1 != 0 {
			h.Policy = Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, OpTimeout: time.Second}
		}
		st, err := stripe.New(n, c.NumRows(), g.sector)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; len(calls) >= 2 && call < 8; call++ {
			idx, k := int(calls[0])%stripes, int(calls[1])%5
			calls = calls[2:]
			var wanted []int
			inRange := true
			for ; k > 0 && len(calls) > 0; k-- {
				w := int(int8(calls[0]))
				calls = calls[1:]
				wanted = append(wanted, w)
				inRange = inRange && w >= 0 && w < total
			}
			var damage []int
			for s := 0; s < total; s++ {
				if damaged[idx][s] || base&(1<<s) != 0 {
					damage = append(damage, s)
				}
			}
			decodable := codes.Decodable(c, codes.Scenario{Faulty: damage})

			for s := 0; s < total; s++ {
				for b := range st.Sector(s) {
					st.Sector(s)[b] = 0xA5
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err := h.ReadSectors(ctx, idx, st, wanted)
			cancel()
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("call %d: stripe %d wanted %v: hit its deadline", call, idx, wanted)
			case err != nil:
				if inRange && decodable {
					t.Fatalf("call %d: stripe %d wanted %v over decodable damage %v: %v", call, idx, wanted, damage, err)
				}
			case !inRange:
				t.Fatalf("call %d: stripe %d wanted %v out of range, but the call succeeded", call, idx, wanted)
			default:
				for _, w := range wanted {
					if !bytes.Equal(st.Sector(w), g.origs[idx].Sector(w)) {
						t.Fatalf("call %d: stripe %d wanted %v: sector %d is wrong", call, idx, wanted, w)
					}
				}
			}
		}
	})
}
