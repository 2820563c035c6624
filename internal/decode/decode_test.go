package decode

import (
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

func paperSD(t *testing.T) *codes.SD {
	t.Helper()
	sd, err := codes.NewSDWithCoefficients(4, 4, 1, 1, gf.GF8, []uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// encodedStripe builds a random-data, traditionally encoded stripe,
// checked by the scalar oracle, so the tests that compare a decode with
// it compare against a codeword.
func encodedStripe(t *testing.T, c codes.Code, sectorSize int, seed int64) *stripe.Stripe {
	t.Helper()
	st, err := stripe.New(c.NumStrips(), c.NumRows(), sectorSize)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(seed, codes.DataPositions(c))
	if err := Encode(c, st, Options{}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !scalarCodeword(c, st) {
		t.Fatalf("%s: encoded stripe fails the scalar H*B = 0 check", c.Name())
	}
	return st
}

func TestEncodeProducesCodeword(t *testing.T) {
	for _, mk := range []func() (codes.Code, error){
		func() (codes.Code, error) { return codes.NewSDWithCoefficients(4, 4, 1, 1, gf.GF8, []uint32{1, 2}) },
		func() (codes.Code, error) { return codes.NewLRC(12, 3, 2) },
		func() (codes.Code, error) { return codes.NewRS(8, 4, 2) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		st := encodedStripe(t, c, 64, 100)
		ok, err := Verify(c, st)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s: encoded stripe fails H*B = 0", c.Name())
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	sd := paperSD(t)
	st := encodedStripe(t, sd, 64, 101)
	st.Sector(5)[3] ^= 0x01
	ok, err := Verify(sd, st)
	if err != nil {
		t.Fatal(err)
	}
	if ok || scalarCodeword(sd, st) {
		t.Fatal("corrupted stripe passed Verify")
	}
}

func TestDecodePaperScenario(t *testing.T) {
	sd := paperSD(t)
	st := encodedStripe(t, sd, 64, 102)
	want := st.Clone()

	sc, err := codes.NewScenario(sd, []int{2, 6, 10, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	st.Scribble(999, sc.Faulty)

	for _, seq := range []kernel.Sequence{kernel.Normal, kernel.MatrixFirst} {
		damaged := st.Clone()
		if err := Decode(sd, damaged, sc, Options{Sequence: seq}); err != nil {
			t.Fatalf("%v: %v", seq, err)
		}
		if !damaged.Equal(want) {
			t.Fatalf("%v: decode did not restore the stripe", seq)
		}
	}
}

// TestDecodeCostsMatchPaper pins the measured mult_XORs of the worked
// example against the paper's §II-B numbers: C1 = 35, C2 = 31.
func TestDecodeCostsMatchPaper(t *testing.T) {
	sd := paperSD(t)
	st := encodedStripe(t, sd, 64, 103)
	sc, err := codes.NewScenario(sd, []int{2, 6, 10, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	st.Scribble(999, sc.Faulty)

	var c1 kernel.Stats
	if err := Decode(sd, st.Clone(), sc, Options{Sequence: kernel.Normal, Stats: &c1}); err != nil {
		t.Fatal(err)
	}
	if c1.MultXORs() != 35 {
		t.Fatalf("C1 = %d, paper says 35", c1.MultXORs())
	}

	var c2 kernel.Stats
	if err := Decode(sd, st.Clone(), sc, Options{Sequence: kernel.MatrixFirst, Stats: &c2}); err != nil {
		t.Fatal(err)
	}
	if c2.MultXORs() != 31 {
		t.Fatalf("C2 = %d, paper says 31", c2.MultXORs())
	}
}

func TestDecodeRandomScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, sd, 32, 104)
	want := st.Clone()
	for trial := 0; trial < 10; trial++ {
		for z := 1; z <= 2; z++ {
			sc, err := sd.WorstCaseScenario(rng, z)
			if err != nil {
				t.Fatal(err)
			}
			damaged := st.Clone()
			damaged.Scribble(int64(trial), sc.Faulty)
			if err := Decode(sd, damaged, sc, Options{}); err != nil {
				t.Fatal(err)
			}
			if !damaged.Equal(want) {
				t.Fatalf("trial %d z %d: wrong recovery", trial, z)
			}
		}
	}
}

func TestDecodeLRCDegradedRead(t *testing.T) {
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, lrc, 64, 105)
	want := st.Clone()
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 12; trial++ {
		sc := lrc.DegradedReadScenario(rng)
		damaged := st.Clone()
		damaged.Erase(sc.Faulty)
		var stats kernel.Stats
		if err := Decode(lrc, damaged, sc, Options{Stats: &stats}); err != nil {
			t.Fatal(err)
		}
		if !damaged.Equal(want) {
			t.Fatal("degraded read wrong")
		}
		// The greedy pivot selection must have used the local row:
		// group size + 1 operations at most (local group + F^-1),
		// far fewer than the k+1-wide global row would cost.
		groupSize := 4 // k=12, l=3
		if stats.MultXORs() > int64(groupSize+1) {
			t.Fatalf("degraded read cost %d; local-row path should cost <= %d",
				stats.MultXORs(), groupSize+1)
		}
	}
}

func TestDecodeEmptyScenario(t *testing.T) {
	sd := paperSD(t)
	st := encodedStripe(t, sd, 64, 106)
	want := st.Clone()
	if err := Decode(sd, st, codes.Scenario{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if !st.Equal(want) {
		t.Fatal("empty decode modified the stripe")
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	sd := paperSD(t)
	st := encodedStripe(t, sd, 64, 107)
	sc, err := codes.NewScenario(sd, []int{0, 1, 2, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(sd, st, sc, Options{}); err == nil {
		t.Fatal("6 erasures accepted with 5 check rows")
	}
}

func TestDecodeUnrecoverablePattern(t *testing.T) {
	// Two sectors in the same stripe row of an m=1 RS code: F singular.
	rs, err := codes.NewRS(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := encodedStripe(t, rs, 64, 108)
	sc, err := codes.NewScenario(rs, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(rs, st, sc, Options{}); err == nil {
		t.Fatal("unrecoverable pattern accepted")
	}
}

func TestGeometryMismatch(t *testing.T) {
	sd := paperSD(t)
	st, err := stripe.New(5, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(sd, st, codes.Scenario{Faulty: []int{0}}, Options{}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := Verify(sd, st); err == nil {
		t.Fatal("Verify accepted mismatched stripe")
	}
}

func TestSectorAlignmentForWideFields(t *testing.T) {
	// GF(2^16) code with sector size 6 (not a multiple of 2 words of 4
	// bytes... 6 is a multiple of 2 but stripe.New requires multiples
	// of 4, which covers all fields). 4-byte sectors work everywhere.
	sd, err := codes.NewSD(16, 16, 1, 1) // w=16 instance
	if err != nil {
		t.Fatal(err)
	}
	if sd.Field().W() != 16 {
		t.Skip("expected a GF(2^16) instance")
	}
	st, err := stripe.New(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, codes.DataPositions(sd))
	if err := Encode(sd, st, Options{}); err != nil {
		t.Fatal(err)
	}
	ok, err := Verify(sd, st)
	if err != nil || !ok || !scalarCodeword(sd, st) {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}
