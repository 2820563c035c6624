package stripe

import (
	"bytes"
	"math"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/gf"
)

func TestNewGeometry(t *testing.T) {
	st, err := New(4, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 4 || st.R() != 4 || st.SectorSize() != 64 {
		t.Fatal("geometry wrong")
	}
	if st.TotalSectors() != 16 || st.TotalBytes() != 16*64 {
		t.Fatal("totals wrong")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct{ n, r, size int }{
		{0, 4, 64}, {4, 0, 64}, {4, 4, 0}, {4, 4, 3}, {4, 4, 62},
	}
	for _, c := range cases {
		if _, err := New(c.n, c.r, c.size); err == nil {
			t.Errorf("New(%d,%d,%d) accepted", c.n, c.r, c.size)
		}
	}
}

// TestNewRejectsOverflow: a geometry whose n·r or n·r·sectorSize
// overflows int is an error. It used to panic on a slice bound, or
// return a stripe that reported its geometry but held no sectors.
func TestNewRejectsOverflow(t *testing.T) {
	cases := []struct {
		name       string
		n, r, size int
	}{
		{"bytes", 16, 16, 1 << 60},
		{"bytes at 2^63", 8, 4, 1 << 58},
		{"sectors", 1 << 40, 1 << 40, 4},
		{"sectors at 2^64", 1 << 32, 1 << 32, 4},
		{"max n", math.MaxInt, 2, 4},
		{"max r", 2, math.MaxInt, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := New(c.n, c.r, c.size)
			if err == nil {
				t.Fatalf("New(%d, %d, %d) returned a %d×%d stripe of %d sectors", c.n, c.r, c.size, st.N(), st.R(), len(st.sectors))
			}
		})
	}
}

func TestSectorAddressing(t *testing.T) {
	st, _ := New(4, 3, 8)
	st.SectorAt(2, 1)[0] = 0xAB
	// Global index = row*n + disk = 2*4 + 1 = 9.
	if st.Sector(9)[0] != 0xAB {
		t.Fatal("SectorAt and Sector disagree")
	}
	secs := st.Sectors([]int{9, 0})
	if secs[0][0] != 0xAB || len(secs) != 2 {
		t.Fatal("Sectors view wrong")
	}
}

func TestSectorOutOfRangePanics(t *testing.T) {
	st, _ := New(2, 2, 8)
	for _, f := range []func(){
		func() { st.Sector(4) },
		func() { st.Sector(-1) },
		func() { st.SectorAt(2, 0) },
		func() { st.SectorAt(0, 2) },
	} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a, _ := New(3, 3, 16)
	b, _ := New(3, 3, 16)
	a.FillRandom(7)
	b.FillRandom(7)
	if !a.Equal(b) {
		t.Fatal("same seed produced different stripes")
	}
	b.FillRandom(8)
	if a.Equal(b) {
		t.Fatal("different seeds produced identical stripes")
	}
}

func TestCloneAndEqual(t *testing.T) {
	a, _ := New(3, 2, 8)
	a.FillRandom(1)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Sector(0)[0] ^= 0xFF
	if a.Equal(c) {
		t.Fatal("clone shares storage")
	}
	d, _ := New(3, 2, 12)
	if a.Equal(d) {
		t.Fatal("different geometry equal")
	}
}

func TestEraseAndScribble(t *testing.T) {
	st, _ := New(2, 2, 8)
	st.FillRandom(3)
	orig := st.Clone()

	st.Erase([]int{1, 2})
	if !bytes.Equal(st.Sector(1), make([]byte, 8)) {
		t.Fatal("Erase did not zero")
	}
	if !bytes.Equal(st.Sector(0), orig.Sector(0)) {
		t.Fatal("Erase touched other sectors")
	}

	st.Scribble(9, []int{0})
	if bytes.Equal(st.Sector(0), orig.Sector(0)) {
		t.Fatal("Scribble left sector intact")
	}
}

func TestFillDataRandom(t *testing.T) {
	st, _ := New(2, 2, 8)
	st.FillRandom(5)
	st.FillDataRandom(6, []int{0, 1})
	if bytes.Equal(st.Sector(0), make([]byte, 8)) {
		t.Fatal("data sector not filled")
	}
	if !bytes.Equal(st.Sector(3), make([]byte, 8)) {
		t.Fatal("non-data sector not zeroed")
	}
}

func TestForCode(t *testing.T) {
	sd, err := codes.NewSDWithCoefficients(4, 4, 1, 1, gf.GF8, []uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ForCode(sd, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 4 || st.R() != 4 {
		t.Fatal("geometry mismatch")
	}
	if st.SectorSize() != 1024 {
		t.Fatalf("sector size = %d, want 1024", st.SectorSize())
	}
	// Tiny stripe budgets still get minimum aligned sectors.
	st, err = ForCode(sd, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.SectorSize() != 4 {
		t.Fatalf("minimum sector size = %d, want 4", st.SectorSize())
	}
}

// TestScribbleAlwaysDiffers pins Scribble's guarantee: a scribbled
// sector never keeps its previous contents, even when it already holds
// the exact bytes the seeded rng would produce (the double-scribble
// trap that would let corrupt-then-recover tests pass vacuously).
func TestScribbleAlwaysDiffers(t *testing.T) {
	st, err := New(4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	positions := []int{0, 3, 5}
	st.Scribble(42, positions)
	snapshot := st.Clone()
	// Same seed, same positions: the rng reproduces the sector stream
	// exactly, so only the difference guarantee can change the bytes.
	st.Scribble(42, positions)
	for _, p := range positions {
		if bytes.Equal(st.Sector(p), snapshot.Sector(p)) {
			t.Errorf("sector %d unchanged after re-scribble with the same seed", p)
		}
	}
}

// TestFlipBit pins the minimal-corruption helper: exactly one bit of
// exactly one sector changes.
func TestFlipBit(t *testing.T) {
	st, err := New(4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	st.FillRandom(9)
	before := st.Clone()
	st.FlipBit(5, 3, 6)
	for p := 0; p < st.TotalSectors(); p++ {
		a, b := st.Sector(p), before.Sector(p)
		if p != 5 {
			if !bytes.Equal(a, b) {
				t.Fatalf("sector %d changed", p)
			}
			continue
		}
		diff := 0
		for i := range a {
			diff += popcount(a[i] ^ b[i])
		}
		if diff != 1 {
			t.Fatalf("FlipBit changed %d bits, want 1", diff)
		}
		if a[3]^b[3] != 1<<6 {
			t.Fatalf("wrong bit flipped: %02x", a[3]^b[3])
		}
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TestView: a view's sectors are the caller's memory, not copies; the
// constructor rejects a sector of the wrong length or count, and Alias
// re-points a sector and panics on a wrong length.
func TestView(t *testing.T) {
	const n, r, size = 2, 2, 8
	mem := make([]byte, n*r*size)
	secs := make([][]byte, n*r)
	for i := range secs {
		secs[i] = mem[i*size : (i+1)*size]
	}
	v, err := NewView(n, r, size, secs)
	if err != nil {
		t.Fatal(err)
	}
	v.Stripe().Sector(3)[0] = 7
	if mem[3*size] != 7 {
		t.Fatal("a write through the view did not reach the caller's memory")
	}
	other := make([]byte, size)
	v.Alias(1, other)
	v.Stripe().Sector(1)[2] = 9
	if other[2] != 9 || mem[size+2] != 0 {
		t.Fatal("Alias did not re-point sector 1")
	}

	short := append([][]byte(nil), secs...)
	short[2] = short[2][:size-4]
	if _, err := NewView(n, r, size, short); err == nil {
		t.Error("NewView accepted a short sector")
	}
	if _, err := NewView(n, r, size, secs[:3]); err == nil {
		t.Error("NewView accepted too few sectors")
	}
	if _, err := NewView(n, r, 6, secs); err == nil {
		t.Error("NewView accepted a sector size that is not a multiple of 4")
	}
	defer func() {
		if recover() == nil {
			t.Error("Alias accepted a sector of the wrong length")
		}
	}()
	v.Alias(0, make([]byte, size+4))
}
