package codes

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

func TestNewScenarioValidation(t *testing.T) {
	sd := paperSD(t)
	if _, err := NewScenario(sd, []int{16}); err == nil {
		t.Error("out-of-range sector accepted")
	}
	if _, err := NewScenario(sd, []int{-1}); err == nil {
		t.Error("negative sector accepted")
	}
	if _, err := NewScenario(sd, []int{3, 3}); err == nil {
		t.Error("duplicate sector accepted")
	}
	sc, err := NewScenario(sd, []int{9, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Faulty, []int{2, 5, 9}) {
		t.Fatalf("faulty not sorted: %v", sc.Faulty)
	}
}

func TestEncodingScenario(t *testing.T) {
	sd := paperSD(t)
	sc := EncodingScenario(sd)
	if !reflect.DeepEqual(sc.Faulty, sd.ParityPositions()) {
		t.Fatalf("encoding scenario = %v", sc.Faulty)
	}
	if !Decodable(sd, sc) {
		t.Fatal("encoding scenario not decodable")
	}
}

func TestDecodableEdgeCases(t *testing.T) {
	sd := paperSD(t)
	if !Decodable(sd, Scenario{}) {
		t.Error("empty scenario should be trivially decodable")
	}
	// More erasures than parity-check rows can never be recovered.
	tooMany := Scenario{Faulty: []int{0, 1, 2, 4, 5, 6}}
	if Decodable(sd, tooMany) {
		t.Error("6 erasures decodable with 5 check rows")
	}
}

func TestFaultySet(t *testing.T) {
	sc := Scenario{Faulty: []int{1, 4, 7}}
	set := sc.FaultySet()
	if len(set) != 3 || !set[1] || !set[4] || !set[7] || set[2] {
		t.Fatalf("set = %v", set)
	}
}

// scalarSolve recovers faulty word values using the traditional method
// at scalar granularity: BF = F^-1 * S * BS. It is an independent
// reference implementation used to cross-check code constructions
// before the block-level kernel exists.
func scalarSolve(t *testing.T, c Code, sc Scenario, words []uint32) []uint32 {
	t.Helper()
	h := c.ParityCheck()
	faulty := sc.FaultySet()
	fM, sM, fCols, sCols := h.SplitColumns(func(col int) bool { return faulty[col] })
	if fM.Rows() > fM.Cols() {
		// Over-determined: keep a square invertible subset of equations.
		rows, err := fM.PivotRows()
		if err != nil {
			t.Fatalf("pivot rows: %v", err)
		}
		fM = fM.SelectRows(rows)
		sM = sM.SelectRows(rows)
	}
	inv, err := fM.Invert()
	if err != nil {
		t.Fatalf("invert F: %v", err)
	}
	bs := make([]uint32, len(sCols))
	for i, col := range sCols {
		bs[i] = words[col]
	}
	bf := inv.MulVec(sM.MulVec(bs))
	out := append([]uint32(nil), words...)
	for i, col := range fCols {
		out[col] = bf[i]
	}
	return out
}

// randomCodeword generates data words, derives parity by scalar solve,
// and verifies H * B == 0.
func randomCodeword(t *testing.T, c Code, rng *rand.Rand) []uint32 {
	t.Helper()
	mask := uint32((c.Field().Order() - 1) & 0xFFFFFFFF)
	words := make([]uint32, TotalSectors(c))
	for _, d := range DataPositions(c) {
		words[d] = rng.Uint32() & mask
	}
	words = scalarSolve(t, c, EncodingScenario(c), words)
	for i, v := range c.ParityCheck().MulVec(words) {
		if v != 0 {
			t.Fatalf("%s: H*B row %d = %d after encode", c.Name(), i, v)
		}
	}
	return words
}

// TestScalarRoundTrip encodes random data and re-derives erased words
// for every code family, confirming the parity-check constructions are
// self-consistent end to end.
func TestScalarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))

	sd := paperSD(t)
	lrc, err := NewLRC(12, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRS(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []Code{sd, lrc, rs} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			words := randomCodeword(t, c, rng)
			var sc Scenario
			switch v := c.(type) {
			case *SD:
				var err error
				sc, err = v.WorstCaseScenario(rng, 1)
				if err != nil {
					t.Fatal(err)
				}
			case *LRC:
				var err error
				sc, err = v.WorstCaseScenario(rng)
				if err != nil {
					t.Fatal(err)
				}
			case *RS:
				var err error
				sc, err = v.WorstCaseScenario(rng)
				if err != nil {
					t.Fatal(err)
				}
			}
			corrupted := append([]uint32(nil), words...)
			for _, idx := range sc.Faulty {
				corrupted[idx] = 0xDEAD & uint32((c.Field().Order()-1)&0xFFFFFFFF)
			}
			recovered := scalarSolve(t, c, sc, corrupted)
			for i := range words {
				if recovered[i] != words[i] {
					t.Fatalf("word %d: got %d want %d", i, recovered[i], words[i])
				}
			}
		})
	}
}

// TestValidateRejectsBrokenCode exercises the structural checks with a
// deliberately inconsistent implementation.
type brokenCode struct {
	h      *matrix.Matrix
	parity []int
}

func (b *brokenCode) Name() string                { return "broken" }
func (b *brokenCode) Field() gf.Field             { return gf.GF8 }
func (b *brokenCode) NumStrips() int              { return 4 }
func (b *brokenCode) NumRows() int                { return 1 }
func (b *brokenCode) ParityCheck() *matrix.Matrix { return b.h }
func (b *brokenCode) ParityPositions() []int      { return b.parity }

func TestValidateRejectsBrokenCode(t *testing.T) {
	// Wrong column count.
	bad := &brokenCode{h: matrix.New(gf.GF8, 1, 3), parity: []int{3}}
	if err := Validate(bad); err == nil {
		t.Error("wrong column count accepted")
	}
	// Parity count != rows.
	bad = &brokenCode{h: matrix.New(gf.GF8, 2, 4), parity: []int{3}}
	if err := Validate(bad); err == nil {
		t.Error("parity/row mismatch accepted")
	}
	// Out-of-range parity position.
	bad = &brokenCode{h: matrix.New(gf.GF8, 1, 4), parity: []int{4}}
	if err := Validate(bad); err == nil {
		t.Error("out-of-range parity accepted")
	}
	// Duplicate parity position.
	bad = &brokenCode{h: matrix.New(gf.GF8, 2, 4), parity: []int{3, 3}}
	if err := Validate(bad); err == nil {
		t.Error("duplicate parity accepted")
	}
	// Singular parity columns (all-zero H).
	bad = &brokenCode{h: matrix.New(gf.GF8, 1, 4), parity: []int{3}}
	if err := Validate(bad); err == nil {
		t.Error("singular encode accepted")
	}
}

// TestConstructorsBoundParityCheck: every constructor rejects a
// geometry whose parity-check matrix would exceed MaxParityCheckEntries
// before allocating it, including geometries whose int size would
// overflow. A 2-disk SD over 65,536 rows used to ask for 32 GiB.
func TestConstructorsBoundParityCheck(t *testing.T) {
	const huge = math.MaxInt / 2
	for name, build := range map[string]func() (Code, error){
		"SD":                  func() (Code, error) { return NewSD(2, 65536, 1, 0) },
		"SD coefficients":     func() (Code, error) { return NewSDWithCoefficients(2, 65536, 1, 0, gf.GF32, []uint32{1}) },
		"SD n*r overflow":     func() (Code, error) { return NewSDWithCoefficients(1<<32, 1<<32, 1, 0, gf.GF32, []uint32{1}) },
		"SD in field":         func() (Code, error) { return NewSDInField(4, 1<<22, 1, 1, gf.GF32) },
		"PMDS":                func() (Code, error) { return NewPMDS(2, 65536, 1, 0) },
		"RS":                  func() (Code, error) { return NewRS(16, 1<<16, 4) },
		"RS r overflow":       func() (Code, error) { return NewRSInField(16, huge, 4, gf.GF8) },
		"LRC":                 func() (Code, error) { return NewLRC(1<<20, 1<<19, 2) },
		"LRC sum overflow":    func() (Code, error) { return NewLRCInField(huge, 1, huge, gf.GF32) },
		"locality LRC":        func() (Code, error) { return NewLRCLocality(1<<13, 1<<12, 2, 2) },
		"locality LRC huge k": func() (Code, error) { return NewLRCLocality(huge, 1, 2, huge) },
		"EVENODD":             func() (Code, error) { return NewEVENODD(257) },
		"EVENODD huge p":      func() (Code, error) { return NewEVENODD(math.MaxInt) },
		"RDP":                 func() (Code, error) { return NewRDP(257) },
		"RDP huge p":          func() (Code, error) { return NewRDP(math.MaxInt) },
	} {
		if _, err := build(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: got %v, want the parity-check size rejected", name, err)
		}
	}
}

func TestTotalSectors(t *testing.T) {
	sd := paperSD(t)
	if TotalSectors(sd) != 16 {
		t.Fatalf("TotalSectors = %d", TotalSectors(sd))
	}
}
