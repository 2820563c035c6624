package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// compilePair compiles m with the row-kernel backend and with the XOR
// program forced, for differential checks.
func compilePair(f gf.Field, m *matrix.Matrix) (off, on *CompiledMatrix) {
	return compilePairAccumulating(f, m, 0)
}

// compilePairAccumulating is compilePair with the last acc rows of m
// accumulating (CompileAccumulating).
func compilePairAccumulating(f gf.Field, m *matrix.Matrix, acc int) (off, on *CompiledMatrix) {
	defer SetXorplanMode(SetXorplanMode(XorplanOff))
	off = CompileAccumulating(f, m, acc)
	SetXorplanMode(XorplanOn)
	on = CompileAccumulating(f, m, acc)
	return off, on
}

func TestXorplanModeSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	m := randMatrix(rng, gf.GF8, 3, 5)
	defer SetXorplanMode(SetXorplanMode(XorplanOff))

	SetXorplanMode(XorplanOff)
	if Compile(gf.GF8, m).XORProgram() != nil {
		t.Error("XorplanOff still attached a program")
	}
	SetXorplanMode(XorplanOn)
	if Compile(gf.GF8, m).XORProgram() == nil {
		t.Error("XorplanOn did not attach a program")
	}
	SetXorplanMode(XorplanAuto)
	defer gf.SetAffineKernels(gf.SetAffineKernels(false))
	if !XorplanActive() {
		t.Error("Auto mode inactive with the affine kernels off")
	}
	if Compile(gf.GF8, m).XORProgram() == nil {
		t.Error("Auto mode did not attach a program with the affine kernels off")
	}
}

// TestXorplanByteIdentity runs every compiled application path with
// the XOR backend against the row-kernel backend (and GFNI when the
// host has it): the bytes must be identical, also for a matrix whose
// last two rows accumulate, which runs one program per mode. Run under
// -race this also exercises the pooled run arenas from the fanout
// workers.
func TestXorplanByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	defer setFanoutMinBytes(0)
	setFanoutMinBytes(4 << 10) // force the fanout path at test sizes
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		for _, c := range []struct{ size, acc int }{{512, 0}, {40960, 0}, {512, 2}, {40960, 2}} {
			size := c.size
			name := fmt.Sprintf("gf%d_%dB_acc%d", f.W(), size, c.acc)
			m := randMatrix(rng, f, 4, 8)
			cmOff, cmOn := compilePairAccumulating(f, m, c.acc)
			if cmOn.XORProgram() == nil || (cmOn.AccumulateXORProgram() == nil) != (c.acc == 0) {
				t.Fatalf("%s: forced compile carries programs %v and %v", name, cmOn.XORProgram(), cmOn.AccumulateXORProgram())
			}
			in := randRegions(rng, 8, size)

			// Accumulate: Apply on identical pre-filled outputs.
			outA := randRegions(rng, 4, size)
			outB := make([][]byte, 4)
			for i := range outB {
				outB[i] = append([]byte(nil), outA[i]...)
			}
			var stA, stB Stats
			cmOff.Apply(in, outA, &stA)
			cmOn.Apply(in, outB, &stB)
			for i := range outA {
				if !bytes.Equal(outA[i], outB[i]) {
					t.Errorf("%s: Apply row %d diverges between backends", name, i)
				}
			}
			if stA.MultXORs() != stB.MultXORs() {
				t.Errorf("%s: Apply accounting diverges: %d vs %d mult_XORs", name, stA.MultXORs(), stB.MultXORs())
			}

			// Overwrite: stale garbage must be fully replaced, except in
			// the accumulating rows, which start equal.
			ovA := randRegions(rng, 4, size)
			ovB := randRegions(rng, 4, size)
			for i := 4 - c.acc; i < 4; i++ {
				copy(ovB[i], ovA[i])
			}
			cmOff.ApplyOverwrite(in, ovA, &stA)
			cmOn.ApplyOverwrite(in, ovB, &stB)
			for i := range ovA {
				if !bytes.Equal(ovA[i], ovB[i]) {
					t.Errorf("%s: ApplyOverwrite row %d diverges between backends", name, i)
				}
			}

			// Range path (block-parallel decode shape), word-aligned window.
			lo, hi := 0, size
			if size > 1024 {
				lo, hi = 256, size-256
			}
			rgA := randRegions(rng, 4, size)
			rgB := make([][]byte, 4)
			for i := range rgB {
				rgB[i] = append([]byte(nil), rgA[i]...)
			}
			CompiledProductRange(nil, nil, cmOff, in, rgA, nil, MatrixFirst, lo, hi, &stA)
			CompiledProductRange(nil, nil, cmOn, in, rgB, nil, MatrixFirst, lo, hi, &stB)
			for i := range rgA {
				if !bytes.Equal(rgA[i], rgB[i]) {
					t.Errorf("%s: CompiledProductRange row %d diverges between backends", name, i)
				}
			}
		}
	}
}

// TestXorplanChainIdentity pins the Normal-sequence tile chain: both
// stages through the XOR backend against both through the row kernels.
func TestXorplanChainIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, f := range []gf.Field{gf.GF8, gf.GF16} {
		size := 24 << 10
		s := randMatrix(rng, f, 4, 8)
		finv := randMatrix(rng, f, 4, 4)
		sOff, sOn := compilePair(f, s)
		fOff, fOn := compilePair(f, finv)
		in := randRegions(rng, 8, size)
		outA := randRegions(rng, 4, size)
		outB := randRegions(rng, 4, size)
		var stA, stB Stats
		CompiledProduct(fOff, sOff, nil, in, outA, nil, Normal, &stA)
		CompiledProduct(fOn, sOn, nil, in, outB, nil, Normal, &stB)
		for i := range outA {
			if !bytes.Equal(outA[i], outB[i]) {
				t.Errorf("gf%d: Normal chain row %d diverges between backends", f.W(), i)
			}
		}
		if stA.MultXORs() != stB.MultXORs() {
			t.Errorf("gf%d: chain accounting diverges: %d vs %d", f.W(), stA.MultXORs(), stB.MultXORs())
		}
	}
}

// TestXorplanApplyZeroAllocs pins the steady-state allocation contract
// of the serial compiled path with the XOR backend attached.
func TestXorplanApplyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	rng := rand.New(rand.NewSource(94))
	m := randMatrix(rng, gf.GF16, 4, 10)
	defer SetXorplanMode(SetXorplanMode(XorplanOn))
	cm := Compile(gf.GF16, m)
	if cm.XORProgram() == nil {
		t.Fatal("forced compile carries no program")
	}
	size := 64 << 10 // below fanoutMinBytes(): the serial span path
	in := randRegions(rng, 10, size)
	out := randRegions(rng, 4, size)
	var stats Stats
	cm.Apply(in, out, &stats) // warm the pools
	cm.ApplyOverwrite(in, out, &stats)
	if avg := testing.AllocsPerRun(10, func() {
		cm.Apply(in, out, &stats)
	}); avg != 0 {
		t.Errorf("Apply with XOR backend allocates %v objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		cm.ApplyOverwrite(in, out, &stats)
	}); avg != 0 {
		t.Errorf("ApplyOverwrite with XOR backend allocates %v objects/op, want 0", avg)
	}
}
