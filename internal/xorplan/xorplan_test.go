package xorplan

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

var testFields = []gf.Field{gf.GF8, gf.GF16, gf.GF32}

// setVectorISA overrides the active vector-XOR level and returns the
// previous one, clamped to what the hardware supports, in the same
// restore idiom as gf.SetAffineKernels:
//
//	defer setVectorISA(setVectorISA(gf.VecNone))
//
// Not synchronized: tests that call it must not run in parallel.
func setVectorISA(level int) (prev int) {
	prev = vecLevel
	if max := gf.VectorISALevel(); level > max {
		level = max
	}
	if level < gf.VecNone {
		level = gf.VecNone
	}
	vecLevel = level
	return prev
}

func randRegions(rng *rand.Rand, count, size int) [][]byte {
	regions := make([][]byte, count)
	for i := range regions {
		regions[i] = make([]byte, size)
		rng.Read(regions[i])
	}
	return regions
}

func randMatrix(rng *rand.Rand, f gf.Field, rows, cols int) *matrix.Matrix {
	m := matrix.New(f, rows, cols)
	mask := uint32((f.Order() - 1) & 0xFFFFFFFF)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.Uint32()&mask)
		}
	}
	return m
}

// refApply is the scalar oracle: one table-kernel MultXOR per nonzero
// coefficient, accumulated into out.
func refApply(f gf.Field, m *matrix.Matrix, in, out [][]byte) {
	for i := 0; i < m.Rows(); i++ {
		for j, a := range m.Row(i) {
			if a == 0 {
				continue
			}
			gf.MultiplierFor(f, a).MultXOR(out[i], in[j])
		}
	}
}

func TestProgramMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, f := range testFields {
		for _, dims := range [][2]int{{1, 1}, {3, 1}, {1, 5}, {4, 4}, {4, 12}, {7, 3}} {
			rows, cols := dims[0], dims[1]
			for _, words := range []int{1, 37, 1024} {
				size := words * f.WordBytes()
				name := fmt.Sprintf("gf%d_%dx%d_%dB", f.W(), rows, cols, size)
				m := randMatrix(rng, f, rows, cols)
				prog, err := Compile(f, m)
				if err != nil {
					t.Fatalf("%s: Compile: %v", name, err)
				}
				in := randRegions(rng, cols, size)
				want := make([][]byte, rows)
				for i := range want {
					want[i] = make([]byte, size)
				}
				refApply(f, m, in, want)

				got := randRegions(rng, rows, size) // stale contents: overwrite must win
				prog.RunOverwrite(in, got, 0, size)
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s: RunOverwrite row %d diverges from oracle", name, i)
					}
				}

				if !prog.HasDerivative() {
					acc := randRegions(rng, rows, size)
					wantAcc := make([][]byte, rows)
					for i := range wantAcc {
						wantAcc[i] = append([]byte(nil), acc[i]...)
					}
					refApply(f, m, in, wantAcc)
					prog.RunAccumulate(in, acc, 0, size)
					for i := range acc {
						if !bytes.Equal(acc[i], wantAcc[i]) {
							t.Errorf("%s: RunAccumulate row %d diverges from oracle", name, i)
						}
					}
				}
			}
		}
	}
}

// TestMultiTileMatchesOracle shrinks the arena budget so one run
// crosses many internal tiles, and checks the stitched result.
func TestMultiTileMatchesOracle(t *testing.T) {
	defer setArenaBudget(0)
	setArenaBudget(minProgramTile)
	rng := rand.New(rand.NewSource(82))
	for _, f := range testFields {
		size := 6*minProgramTile + 5*f.WordBytes() // ragged final tile
		m := randMatrix(rng, f, 5, 7)
		prog, err := Compile(f, m)
		if err != nil {
			t.Fatalf("gf%d: Compile: %v", f.W(), err)
		}
		if prog.TileBytes() != minProgramTile {
			t.Fatalf("gf%d: tile %d under minimum budget, want %d", f.W(), prog.TileBytes(), minProgramTile)
		}
		in := randRegions(rng, 7, size)
		want := make([][]byte, 5)
		for i := range want {
			want[i] = make([]byte, size)
		}
		refApply(f, m, in, want)
		out := randRegions(rng, 5, size)
		prog.RunOverwrite(in, out, 0, size)
		for i := range out {
			if !bytes.Equal(out[i], want[i]) {
				t.Errorf("gf%d: multi-tile row %d diverges from oracle", f.W(), i)
			}
		}
	}
}

// TestRunRangeTouchesOnlyWindow pins the span contract the tiled
// kernel driver depends on: a [lo, hi) run must leave bytes outside
// the window untouched.
func TestRunRangeTouchesOnlyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := gf.GF16
	size := 4096
	lo, hi := 512, 3072
	m := randMatrix(rng, f, 4, 6)
	prog, err := Compile(f, m)
	if err != nil {
		t.Fatal(err)
	}
	in := randRegions(rng, 6, size)
	out := randRegions(rng, 4, size)
	before := make([][]byte, 4)
	for i := range before {
		before[i] = append([]byte(nil), out[i]...)
	}
	want := make([][]byte, 4)
	for i := range want {
		want[i] = make([]byte, size)
	}
	refApply(f, m, in, want)
	prog.RunOverwrite(in, out, lo, hi)
	for i := range out {
		if !bytes.Equal(out[i][:lo], before[i][:lo]) || !bytes.Equal(out[i][hi:], before[i][hi:]) {
			t.Errorf("row %d: bytes outside [%d,%d) were touched", i, lo, hi)
		}
		if !bytes.Equal(out[i][lo:hi], want[i][lo:hi]) {
			t.Errorf("row %d: window diverges from oracle", i)
		}
	}
}

// TestVectorLevelsAgree runs the same program at every vector level the
// host supports; all levels must produce identical bytes.
func TestVectorLevelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	f := gf.GF8
	size := 8192 + 40 // vector body + word + byte tails
	m := randMatrix(rng, f, 5, 9)
	prog, err := Compile(f, m)
	if err != nil {
		t.Fatal(err)
	}
	in := randRegions(rng, 9, size)
	run := func(level int) [][]byte {
		defer setVectorISA(setVectorISA(level))
		out := make([][]byte, 5)
		for i := range out {
			out[i] = make([]byte, size)
		}
		prog.RunOverwrite(in, out, 0, size)
		return out
	}
	base := run(gf.VecNone)
	for _, level := range []int{gf.VecAVX2, gf.VecAVX512} {
		if level > gf.VectorISALevel() {
			continue
		}
		got := run(level)
		for i := range got {
			if !bytes.Equal(got[i], base[i]) {
				t.Errorf("level %d row %d diverges from portable sweep", level, i)
			}
		}
	}
}

// TestXorKernelsFused checks every fused width and the aliasing
// contract (dst == first source) against naive byte loops, across
// sizes that exercise the vector body, word sweep and byte tail.
func TestXorKernelsFused(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 127, 128, 200, 4096, 4103} {
		srcs := randRegions(rng, 5, n)
		naive := func(k int) []byte {
			w := make([]byte, n)
			for i := 0; i < n; i++ {
				for s := 0; s < k; s++ {
					w[i] ^= srcs[s][i]
				}
			}
			return w
		}
		dst := make([]byte, n)
		xorSet2(dst, srcs[0], srcs[1])
		if !bytes.Equal(dst, naive(2)) {
			t.Errorf("n=%d: xorSet2 mismatch", n)
		}
		xorSet3(dst, srcs[0], srcs[1], srcs[2])
		if !bytes.Equal(dst, naive(3)) {
			t.Errorf("n=%d: xorSet3 mismatch", n)
		}
		xorSet4(dst, srcs[0], srcs[1], srcs[2], srcs[3])
		if !bytes.Equal(dst, naive(4)) {
			t.Errorf("n=%d: xorSet4 mismatch", n)
		}
		xorSet5(dst, srcs[0], srcs[1], srcs[2], srcs[3], srcs[4])
		if !bytes.Equal(dst, naive(5)) {
			t.Errorf("n=%d: xorSet5 mismatch", n)
		}
		// Aliased accumulate: dst ^= the remaining sources.
		alias := append([]byte(nil), srcs[0]...)
		xorAcc4(alias, srcs[1], srcs[2], srcs[3], srcs[4])
		if !bytes.Equal(alias, naive(5)) {
			t.Errorf("n=%d: aliased xorAcc4 mismatch", n)
		}
	}
}

// TestXtimesMatchesFieldMul pins the SWAR reduction passes against the
// field's own multiply-by-x, lane by lane.
func TestXtimesMatchesFieldMul(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for _, level := range []int{gf.VecNone, gf.VecAVX2} {
		if level > gf.VectorISALevel() {
			continue
		}
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			defer setVectorISA(setVectorISA(level))
			testXtimes(t, rng)
		})
	}
}

func testXtimes(t *testing.T, rng *rand.Rand) {
	for _, f := range testFields {
		wb := f.WordBytes()
		size := 1021 * wb // odd word count: exercises the scalar tail
		src := make([]byte, size)
		rng.Read(src)
		dst := make([]byte, size)
		xtimesRegion(f.W(), dst, src)
		for i := 0; i < size; i += wb {
			var v, g uint32
			for b := 0; b < wb; b++ {
				v |= uint32(src[i+b]) << (8 * b)
				g |= uint32(dst[i+b]) << (8 * b)
			}
			if want := f.Mul(2, v); g != want {
				t.Fatalf("gf%d: xtimes(%#x) = %#x, want %#x", f.W(), v, g, want)
			}
		}
		// In place: chains reuse their slot.
		inPlace := append([]byte(nil), src...)
		xtimesRegion(f.W(), inPlace, inPlace)
		if !bytes.Equal(inPlace, dst) {
			t.Errorf("gf%d: in-place xtimes diverges", f.W())
		}
	}
}

// TestRunZeroAllocs pins the steady-state allocation contract of the
// compiled execute path.
func TestRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	rng := rand.New(rand.NewSource(87))
	f := gf.GF16
	m := randMatrix(rng, f, 6, 10)
	prog, err := Compile(f, m)
	if err != nil {
		t.Fatal(err)
	}
	size := 64 << 10
	in := randRegions(rng, 10, size)
	out := randRegions(rng, 6, size)
	prog.RunOverwrite(in, out, 0, size) // warm the arena pool
	if avg := testing.AllocsPerRun(10, func() {
		prog.RunOverwrite(in, out, 0, size)
	}); avg != 0 {
		t.Errorf("RunOverwrite allocates %v objects/op in steady state, want 0", avg)
	}
	if !prog.HasDerivative() {
		if avg := testing.AllocsPerRun(10, func() {
			prog.RunAccumulate(in, out, 0, size)
		}); avg != 0 {
			t.Errorf("RunAccumulate allocates %v objects/op in steady state, want 0", avg)
		}
	}
}

func TestRunAccumulatePanicsOnDerivative(t *testing.T) {
	p := &Program{w: 8, rows: 1, cols: 1, derivative: true}
	defer func() {
		if recover() == nil {
			t.Fatal("RunAccumulate ran a derivative-scheduled program")
		}
	}()
	p.RunAccumulate(make([][]byte, 1), make([][]byte, 1), 0, 0)
}

func TestTileBytesClamps(t *testing.T) {
	defer setArenaBudget(0)
	setArenaBudget(1 << 20)
	one := &Program{nslots: 1}
	if got := one.TileBytes(); got != maxProgramTile {
		t.Errorf("1-slot tile under a 1 MiB budget = %d, want cap %d", got, maxProgramTile)
	}
	many := &Program{nslots: 4096}
	if got := many.TileBytes(); got != minProgramTile {
		t.Errorf("4096-slot tile = %d, want floor %d", got, minProgramTile)
	}
	setArenaBudget(-1)
	if got := arenaBudget(); got != defaultArenaBudget {
		t.Errorf("setArenaBudget(-1) left budget %d, want default restore", got)
	}
}

func TestCompileCachedCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	f := gf.GF8
	m := randMatrix(rng, f, 4, 4)
	freshCache(t, DefaultCacheSize)
	p1, err := CompileCached(f, m)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileCached(f, m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical matrices compiled to distinct programs")
	}
	if hits, misses := CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats after compile+recompile = %d hits / %d misses, want 1/1", hits, misses)
	}
	// A genuinely different matrix must never share a program.
	m2 := m.Clone()
	m2.Set(0, 0, m.At(0, 0)^1)
	p3, err := CompileCached(f, m2)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct matrices shared one cached program")
	}
}

// TestScheduleBeatsNaive pins that the scheduler actually pays for
// itself on dense matrices: scheduled XORs strictly below the naive
// set-bit count.
// TestDenseMatrixCompilesFlatAndFast pins the scheduler gate: a wide
// dense matrix (the whole-strategy G of a cost-analysis sweep) must
// lower flat — the CSE pair scan on such expansions is near-cubic and
// once took minutes per plan — while staying correct. The budget is
// generous (the flat path is ~10 ms even on slow CI); the pre-gate
// compile took minutes.
func TestDenseMatrixCompilesFlatAndFast(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	f := gf.GF16
	m := randMatrix(rng, f, 6, 120) // ones ≈ 5760: under the old CSE cap, over the gate
	start := time.Now()
	prog, err := Compile(f, m)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dense compile took %v; scheduler gate not engaging", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if prog.XORs() != prog.Ones() {
		t.Errorf("gated program scheduled %d XORs != flat %d", prog.XORs(), prog.Ones())
	}
	if prog.HasDerivative() {
		t.Error("flat program reports a derivative schedule")
	}
	size := 256 * f.WordBytes()
	in := randRegions(rng, m.Cols(), size)
	got := randRegions(rng, m.Rows(), size)
	want := make([][]byte, m.Rows())
	for i := range want {
		want[i] = make([]byte, size)
	}
	refApply(f, m, in, want)
	prog.RunOverwrite(in, got, 0, size)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("row %d diverges from the scalar oracle", i)
		}
	}
}

func TestScheduleBeatsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, f := range testFields {
		m := randMatrix(rng, f, 8, 8)
		prog, err := Compile(f, m)
		if err != nil {
			t.Fatal(err)
		}
		if prog.XORs() >= prog.Ones() {
			t.Errorf("gf%d: scheduled %d XORs >= naive %d", f.W(), prog.XORs(), prog.Ones())
		}
		if prog.Slots() == 0 {
			t.Errorf("gf%d: dense program compiled to zero temp slots", f.W())
		}
	}
}
