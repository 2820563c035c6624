package repair_test

import (
	"bytes"
	"errors"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/planverify"
	"ppm/internal/repair"
	"ppm/internal/stripe"
)

// FuzzDecodeScenario feeds arbitrary faulty lists — any order, repeats
// allowed, indices a little outside the stripe — to the decoder and
// the repair planner of a small code zoo (an SD, an LRC, an RS):
//
//   - a list with an out-of-range or repeated index is an error from
//     Decoder.Decode, core.BuildPlan and Planner.Plan alike;
//   - a valid but undecodable list is an error wrapping
//     core.ErrUnrecoverable from all three;
//   - a decodable list is restored byte-for-byte by Decoder.Decode, by
//     the full repair plan and, sector by sector, by one-sector wanted
//     plans; every repair counts exactly its Cost.MultXORs and
//     VerifyRepairPlan finds nothing in it.
func FuzzDecodeScenario(f *testing.F) {
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	rs, err := codes.NewRS(10, 1, 3)
	if err != nil {
		f.Fatal(err)
	}
	type fixture struct {
		code    codes.Code
		golden  *stripe.Stripe
		dec     *core.Decoder
		planner *repair.Planner
	}
	var zoo []fixture
	for i, c := range []codes.Code{sd, lrc, rs} {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), 32)
		if err != nil {
			f.Fatal(err)
		}
		st.FillDataRandom(int64(60+i), codes.DataPositions(c))
		dec := core.NewDecoder(c)
		if err := dec.Encode(st); err != nil {
			f.Fatal(err)
		}
		zoo = append(zoo, fixture{c, st, dec, repair.NewPlanner(c)})
	}

	// Each byte b names sector b mod (n·r + 8) − 4, so indices run from
	// −4 to n·r+3.
	f.Add(uint8(1), []byte{7, 20})                            // LRC: sector 3 and sector n·r
	f.Add(uint8(1), []byte{3})                                // LRC: sector −1
	f.Add(uint8(1), []byte{9, 9})                             // LRC: sector 5 twice
	f.Add(uint8(0), []byte{13, 6})                            // SD: {9, 2}, unsorted
	f.Add(uint8(0), []byte{4, 10, 16, 22, 5, 11, 17, 23, 13}) // SD: disks 0, 1 and sector 9
	f.Add(uint8(2), []byte{4, 5, 6, 7})                       // RS(10,1,3): four erasures
	f.Add(uint8(2), []byte{11, 6})                            // RS: {7, 2}, unsorted

	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		fx := zoo[int(sel)%len(zoo)]
		c := fx.code
		total := codes.TotalSectors(c)
		if len(raw) > 10 {
			raw = raw[:10]
		}
		faulty := make([]int, len(raw))
		valid := true
		seen := make(map[int]bool, len(raw))
		for i, b := range raw {
			faulty[i] = int(b)%(total+8) - 4
			if faulty[i] < 0 || faulty[i] >= total || seen[faulty[i]] {
				valid = false
			}
			seen[faulty[i]] = true
		}
		sc := codes.Scenario{Faulty: faulty}
		damaged := fx.golden.Clone()
		if valid {
			damaged.Scribble(int64(len(raw)), faulty)
		}

		st := damaged.Clone()
		decErr := fx.dec.Decode(st, sc)
		_, buildErr := core.BuildPlan(c, sc, core.StrategyPPM)
		full, planErr := fx.planner.Plan(sc, nil)
		errs := map[string]error{"Decoder.Decode": decErr, "core.BuildPlan": buildErr, "Planner.Plan": planErr}
		switch {
		case !valid:
			for name, err := range errs {
				if err == nil {
					t.Fatalf("%s accepted invalid faulty list %v", name, faulty)
				}
			}
			return
		case !codes.Decodable(c, sc):
			for name, err := range errs {
				if !errors.Is(err, core.ErrUnrecoverable) {
					t.Fatalf("%s on undecodable %v: got %v, want core.ErrUnrecoverable", name, faulty, err)
				}
			}
			return
		}
		for name, err := range errs {
			if err != nil {
				t.Fatalf("%s on decodable %v: %v", name, faulty, err)
			}
		}
		for _, s := range faulty {
			if !bytes.Equal(st.Sector(s), fx.golden.Sector(s)) {
				t.Fatalf("Decoder.Decode of %v: sector %d differs", faulty, s)
			}
		}

		repairAndCheck := func(p *repair.Plan, sectors []int) {
			t.Helper()
			for _, finding := range planverify.VerifyRepairPlan(c, p) {
				t.Errorf("faulty %v wanted %v: %s", faulty, p.Wanted, finding)
			}
			st := damaged.Clone()
			var stats kernel.Stats
			if err := p.Execute(st, &stats); err != nil {
				t.Fatalf("faulty %v wanted %v: %v", faulty, p.Wanted, err)
			}
			if stats.MultXORs() != p.Cost.MultXORs {
				t.Fatalf("faulty %v wanted %v: measured %d mult_XORs, plan costs %d",
					faulty, p.Wanted, stats.MultXORs(), p.Cost.MultXORs)
			}
			for _, s := range sectors {
				if !bytes.Equal(st.Sector(s), fx.golden.Sector(s)) {
					t.Fatalf("faulty %v wanted %v: sector %d differs", faulty, p.Wanted, s)
				}
			}
		}
		repairAndCheck(full, faulty)
		for _, s := range faulty {
			p, err := fx.planner.Plan(sc, []int{s})
			if err != nil {
				t.Fatalf("faulty %v wanted %d: %v", faulty, s, err)
			}
			repairAndCheck(p, []int{s})
		}
	})
}
