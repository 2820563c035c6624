package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

func randRegions(rng *rand.Rand, count, size int) [][]byte {
	regions := AllocRegions(count, size)
	for _, r := range regions {
		rng.Read(r)
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

func randInvertible(rng *rand.Rand, f gf.Field, n int) *matrix.Matrix {
	for {
		m := randMatrix(rng, f, n, n)
		if m.Invertible() {
			return m
		}
	}
}

// TestApplyMatchesScalar checks the compiled region-level product
// against the scalar MulVec word by word, accumulated onto zeroed
// outputs and overwriting dirty ones, over regions shorter than one
// 64-byte chunk (the table path).
func TestApplyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := gf.GF8
	m := randMatrix(rng, f, 3, 5)
	in := randRegions(rng, 5, 16)
	cm := Compile(f, m)

	acc := AllocRegions(3, 16)
	cm.Apply(in, acc, nil)
	over := randRegions(rng, 3, 16)
	cm.ApplyOverwrite(in, over, nil)

	for byteIdx := 0; byteIdx < 16; byteIdx++ {
		vec := make([]uint32, 5)
		for j := range vec {
			vec[j] = uint32(in[j][byteIdx])
		}
		want := m.MulVec(vec)
		for i := range want {
			if uint32(acc[i][byteIdx]) != want[i] || uint32(over[i][byteIdx]) != want[i] {
				t.Fatalf("byte %d row %d: got %d (overwrite %d) want %d", byteIdx, i, acc[i][byteIdx], over[i][byteIdx], want[i])
			}
		}
	}
}

// TestApplyCountsNonzeros: the stats counter equals u(M) exactly.
func TestApplyCountsNonzeros(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	f := gf.GF8
	m := randMatrix(rng, f, 4, 6)
	m.Set(0, 0, 0)
	m.Set(3, 5, 0)
	in := randRegions(rng, 6, 8)
	out := AllocRegions(4, 8)
	var stats Stats
	Compile(f, m).Apply(in, out, &stats)
	if got := stats.MultXORs(); got != int64(m.NNZ()) {
		t.Fatalf("stats = %d, u(M) = %d", got, m.NNZ())
	}
}

func TestApplyAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	f := gf.GF8
	m := randMatrix(rng, f, 2, 2)
	in := randRegions(rng, 2, 8)
	out := AllocRegions(2, 8)
	cm := Compile(f, m)
	cm.Apply(in, out, nil)
	// Applying again XORs on top: doubles cancel in characteristic 2.
	cm.Apply(in, out, nil)
	if !bytes.Equal(out[0], make([]byte, 8)) {
		t.Fatal("second Apply did not cancel the first")
	}
}

// TestApplyShapeMismatchPanics: an output count that does not match
// the matrix's rows is a programming error in the overwrite path too.
func TestApplyShapeMismatchPanics(t *testing.T) {
	f := gf.GF8
	cm := Compile(f, matrix.New(f, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	cm.ApplyOverwrite(AllocRegions(3, 8), AllocRegions(3, 8), nil)
}

// TestProductSequencesAgree: Normal and MatrixFirst produce identical
// recovered blocks — the paper's two calculation orders differ only in
// cost, never in result — and both equal the scalar product
// F^-1 * (S * BS).
func TestProductSequencesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		f := f
		t.Run(fmt.Sprintf("GF%d", f.W()), func(t *testing.T) {
			finv := randInvertible(rng, f, 3)
			s := randMatrix(rng, f, 3, 7)
			in := randRegions(rng, 7, 32)
			want := refProduct(f, finv, refProduct(f, s, in))

			outNormal := AllocRegions(3, 32)
			outMF := AllocRegions(3, 32)
			var statsN, statsMF Stats
			CompiledProduct(Compile(f, finv), Compile(f, s), nil, in, outNormal, nil, Normal, &statsN)
			CompiledProduct(nil, nil, Compile(f, finv.Mul(s)), in, outMF, nil, MatrixFirst, &statsMF)

			for i := range want {
				if !bytes.Equal(outNormal[i], want[i]) || !bytes.Equal(outMF[i], want[i]) {
					t.Fatalf("block %d differs from the scalar product", i)
				}
			}
			if statsN.MultXORs() != int64(finv.NNZ()+s.NNZ()) {
				t.Fatalf("normal cost = %d, want u(F^-1)+u(S) = %d",
					statsN.MultXORs(), finv.NNZ()+s.NNZ())
			}
			if statsMF.MultXORs() != int64(finv.Mul(s).NNZ()) {
				t.Fatalf("matrix-first cost = %d, want u(F^-1*S) = %d",
					statsMF.MultXORs(), finv.Mul(s).NNZ())
			}
		})
	}
}

// TestProductWithScratch: the range form chaining through dirty
// caller-owned scratch, over uneven word-aligned chunks, gives the
// whole-region product through pooled scratch.
func TestProductWithScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	f := gf.GF16
	finv := randInvertible(rng, f, 2)
	s := randMatrix(rng, f, 2, 4)
	in := randRegions(rng, 4, 16)
	cFinv, cS := Compile(f, finv), Compile(f, s)
	out1 := AllocRegions(2, 16)
	scratch := randRegions(rng, 2, 16) // dirty scratch must not leak into the result
	for _, ch := range ChunkRanges(16, 3, 2) {
		CompiledProductRange(cFinv, cS, nil, in, out1, scratch, Normal, ch[0], ch[1], nil)
	}
	out2 := AllocRegions(2, 16)
	CompiledProduct(cFinv, cS, nil, in, out2, nil, Normal, nil)
	for i := range out1 {
		if !bytes.Equal(out1[i], out2[i]) {
			t.Fatal("scratch reuse changed the result")
		}
	}
}

// TestProductOverwritesOutput: stale output contents never leak into a
// product, under either sequence.
func TestProductOverwritesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	f := gf.GF8
	finv := randInvertible(rng, f, 2)
	s := randMatrix(rng, f, 2, 3)
	in := randRegions(rng, 3, 8)
	want := refProduct(f, finv, refProduct(f, s, in))
	cFinv, cS, cG := Compile(f, finv), Compile(f, s), Compile(f, finv.Mul(s))
	for _, seq := range []Sequence{Normal, MatrixFirst} {
		dirty := randRegions(rng, 2, 8)
		CompiledProduct(cFinv, cS, cG, in, dirty, nil, seq, nil)
		for i := range want {
			if !bytes.Equal(want[i], dirty[i]) {
				t.Fatalf("%v: stale output contents leaked into the product", seq)
			}
		}
	}
}

func TestStatsConcurrent(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.AddMultXORs(1)
			}
		}()
	}
	wg.Wait()
	if s.MultXORs() != 8000 {
		t.Fatalf("stats = %d, want 8000", s.MultXORs())
	}
	s.Reset()
	if s.MultXORs() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.AddMultXORs(5)
	if s.MultXORs() != 0 {
		t.Fatal("nil stats returned nonzero")
	}
	s.Reset()
}

func TestSequenceString(t *testing.T) {
	if Normal.String() != "normal" || MatrixFirst.String() != "matrix-first" {
		t.Fatal("sequence names wrong")
	}
	if Sequence(9).String() == "" {
		t.Fatal("unknown sequence renders empty")
	}
}

func TestAllocRegions(t *testing.T) {
	rs := AllocRegions(3, 8)
	if len(rs) != 3 || len(rs[0]) != 8 {
		t.Fatal("wrong shape")
	}
	rs[0][7] = 1
	if rs[1][0] != 0 {
		t.Fatal("regions overlap")
	}
	if rs := AllocRegions(0, 8); len(rs) != 0 {
		t.Fatal("empty alloc wrong")
	}
}

// TestProductUnknownSequencePanics: the range form rejects an unknown
// sequence like the whole-region form does.
func TestProductUnknownSequencePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	f := gf.GF8
	cm := Compile(f, randMatrix(rng, f, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("unknown sequence did not panic")
		}
	}()
	CompiledProductRange(cm, cm, cm, randRegions(rng, 3, 8), AllocRegions(2, 8), nil, Sequence(99), 0, 8, nil)
}

func TestProductShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	f := gf.GF8
	finv := randInvertible(rng, f, 2)
	s := randMatrix(rng, f, 3, 3) // F^-1 cols != S rows
	defer func() {
		if recover() == nil {
			t.Fatal("F/S shape mismatch did not panic")
		}
	}()
	CompiledProduct(Compile(f, finv), Compile(f, s), nil, randRegions(rng, 3, 8), AllocRegions(2, 8), nil, Normal, nil)
}

func TestCompiledProductUnknownSequencePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := gf.GF8
	cm := Compile(f, randMatrix(rng, f, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("unknown sequence did not panic")
		}
	}()
	CompiledProduct(cm, cm, cm, randRegions(rng, 3, 8), AllocRegions(2, 8), nil, Sequence(99), nil)
}

func TestCompiledProductWithScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	f := gf.GF8
	finv := randInvertible(rng, f, 2)
	s := randMatrix(rng, f, 2, 4)
	in := randRegions(rng, 4, 16)
	cFinv, cS := Compile(f, finv), Compile(f, s)

	withScratch := AllocRegions(2, 16)
	scratch := randRegions(rng, 2, 16) // dirty scratch must not leak
	CompiledProduct(cFinv, cS, nil, in, withScratch, scratch, Normal, nil)

	fresh := AllocRegions(2, 16)
	CompiledProduct(cFinv, cS, nil, in, fresh, nil, Normal, nil)
	for i := range fresh {
		if !bytes.Equal(withScratch[i], fresh[i]) {
			t.Fatal("scratch reuse changed the result")
		}
	}
}

func TestChunkRangesDegenerate(t *testing.T) {
	if got := ChunkRanges(0, 4, 4); len(got) != 0 {
		t.Fatalf("empty size produced ranges %v", got)
	}
	if got := ChunkRanges(8, 0, 4); len(got) != 1 || got[0] != [2]int{0, 8} {
		t.Fatalf("zero parts = %v", got)
	}
}
