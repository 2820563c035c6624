package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// TestCompiledApplyMatchesApply: the lowered form computes exactly what
// the matrix form computes, with the same operation count.
func TestCompiledApplyMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		f := f
		t.Run(fmt.Sprintf("GF%d", f.W()), func(t *testing.T) {
			m := randMatrix(rng, f, 4, 7)
			m.Set(1, 1, 0)
			m.Set(3, 6, 0)
			n := 32 * f.WordBytes()
			in := randRegions(rng, 7, n)

			plain := AllocRegions(4, n)
			var plainStats Stats
			Apply(f, m, in, plain, &plainStats)

			cm := Compile(f, m)
			if cm.Rows() != 4 || cm.Cols() != 7 {
				t.Fatalf("compiled dims %dx%d", cm.Rows(), cm.Cols())
			}
			if cm.NNZ() != m.NNZ() {
				t.Fatalf("compiled NNZ %d != %d", cm.NNZ(), m.NNZ())
			}
			compiled := AllocRegions(4, n)
			var compiledStats Stats
			cm.Apply(in, compiled, &compiledStats)

			for i := range plain {
				if !bytes.Equal(plain[i], compiled[i]) {
					t.Fatalf("row %d differs", i)
				}
			}
			if plainStats.MultXORs() != compiledStats.MultXORs() {
				t.Fatalf("op counts differ: %d vs %d", plainStats.MultXORs(), compiledStats.MultXORs())
			}
		})
	}
}

func TestCompiledProductBothSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	f := gf.GF16
	finv := randInvertible(rng, f, 3)
	s := randMatrix(rng, f, 3, 6)
	n := 64
	in := randRegions(rng, 6, n)

	ref := AllocRegions(3, n)
	Product(f, finv, s, in, ref, nil, Normal, nil)

	cFinv, cS, cG := Compile(f, finv), Compile(f, s), Compile(f, finv.Mul(s))
	for _, seq := range []Sequence{Normal, MatrixFirst} {
		out := AllocRegions(3, n)
		var stats Stats
		CompiledProduct(cFinv, cS, cG, in, out, nil, seq, &stats)
		for i := range out {
			if !bytes.Equal(out[i], ref[i]) {
				t.Fatalf("%v: row %d differs from reference", seq, i)
			}
		}
		want := int64(cG.NNZ())
		if seq == Normal {
			want = int64(cFinv.NNZ() + cS.NNZ())
		}
		if stats.MultXORs() != want {
			t.Fatalf("%v: ops %d, want %d", seq, stats.MultXORs(), want)
		}
	}
}

func TestCompiledApplyShapePanics(t *testing.T) {
	cm := Compile(gf.GF8, randMatrix(rand.New(rand.NewSource(153)), gf.GF8, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	cm.Apply(AllocRegions(2, 8), AllocRegions(2, 8), nil)
}

// TestCompileSharesMultipliers: equal coefficients compile to one
// multiplier (pointer-shared), keeping table memory proportional to the
// number of distinct coefficients.
func TestCompileSharesMultipliers(t *testing.T) {
	f := gf.GF16
	m := randMatrix(rand.New(rand.NewSource(154)), f, 1, 1)
	m.Set(0, 0, 0x55)
	big := Compile(f, m)
	_ = big
	// Build a 3x3 all-0x55 matrix; all 9 entries must share a multiplier.
	mm := randMatrix(rand.New(rand.NewSource(155)), f, 3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			mm.Set(i, j, 0x55)
		}
	}
	cm := Compile(f, mm)
	first := cm.RowTerms(0)[0].Mult
	for i := 0; i < cm.Rows(); i++ {
		for _, term := range cm.RowTerms(i) {
			if term.Mult != first {
				t.Fatal("equal coefficients got distinct multipliers")
			}
		}
	}
}

func BenchmarkCompiledVsPlainApply(b *testing.B) {
	rng := rand.New(rand.NewSource(156))
	f := gf.GF16
	m := randMatrix(rng, f, 8, 16)
	in := randRegions(rng, 16, 4096)
	out := AllocRegions(8, 4096)
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(16 * 4096))
		for i := 0; i < b.N; i++ {
			Apply(f, m, in, out, nil)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		cm := Compile(f, m)
		b.SetBytes(int64(16 * 4096))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Apply(in, out, nil)
		}
	})
}

// blockTestMatrix builds a rows x cols matrix whose rows group into
// blocks of every kind: four rows on one dense support (more than
// gf.BlockRows, so it splits), two on a sparse support with 0 and 1
// coefficients, one row of its own and one all-zero row.
func blockTestMatrix(rng *rand.Rand, f gf.Field) *matrix.Matrix {
	const cols = 20
	m := matrix.New(f, 9, cols)
	mask := uint32(f.Order() - 1)
	nonzero := func() uint32 {
		if rng.Intn(3) == 0 {
			return 1
		}
		if a := rng.Uint32() & mask; a != 0 {
			return a
		}
		return 2
	}
	for _, i := range []int{0, 2, 3, 5, 7} {
		for j := 0; j < cols; j++ {
			m.Set(i, j, nonzero())
		}
	}
	for _, i := range []int{1, 6} {
		for j := 0; j < cols; j += 3 {
			m.Set(i, j, nonzero())
		}
	}
	m.Set(4, 7, nonzero())
	return m
}

// refProduct computes M * in word by word with scalar arithmetic.
func refProduct(f gf.Field, m *matrix.Matrix, in [][]byte) [][]byte {
	wb := f.WordBytes()
	out := AllocRegions(m.Rows(), regionLen(in))
	vec := make([]uint32, m.Cols())
	for p := 0; p+wb <= regionLen(in); p += wb {
		for j := range vec {
			vec[j] = 0
			for b := 0; b < wb; b++ {
				vec[j] |= uint32(in[j][p+b]) << uint(8*b)
			}
		}
		for i, w := range m.MulVec(vec) {
			for b := 0; b < wb; b++ {
				out[i][p+b] = byte(w >> uint(8*b))
			}
		}
	}
	return out
}

// TestCompiledBlocksAffineOnOff: Apply, ApplyOverwrite, CompiledProduct
// and CompiledProductRange give byte-identical results
// with the affine kernels on and off — also when they are switched off
// after Compile — and both equal the scalar product, across lengths
// below one 64-byte chunk, with word tails, and beyond one tile.
func TestCompiledBlocksAffineOnOff(t *testing.T) {
	setTileSize(1 << 10)
	defer setTileSize(0)
	rng := rand.New(rand.NewSource(158))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		m := blockTestMatrix(rng, f)
		finv := randInvertible(rng, f, m.Rows())
		cm, cFinv, cG := Compile(f, m), Compile(f, finv), Compile(f, finv.Mul(m))
		if got := len(cm.Blocks()); got != 5 {
			t.Fatalf("GF%d: %d blocks, want 5 (rows 0,2,3,5 | 7 | 1,6 | 4 | 8)", f.W(), got)
		}
		wb := f.WordBytes()
		for _, size := range []int{40 - 40%wb, 3*64 + wb, 5<<10 + 64 + wb} {
			in := randRegions(rng, m.Cols(), size)
			seed := randRegions(rng, m.Rows(), size)
			prod := refProduct(f, m, in)
			chained := refProduct(f, finv, prod)
			lo, hi := wb, size-wb
			run := func() map[string][][]byte {
				res := map[string][][]byte{}
				fresh := func() [][]byte {
					out := AllocRegions(len(seed), size)
					for i := range out {
						copy(out[i], seed[i])
					}
					return out
				}
				res["Apply"] = fresh()
				cm.Apply(in, res["Apply"], nil)
				res["ApplyOverwrite"] = fresh()
				cm.ApplyOverwrite(in, res["ApplyOverwrite"], nil)
				res["Normal"] = fresh()
				CompiledProduct(cFinv, cm, nil, in, res["Normal"], nil, Normal, nil)
				res["MatrixFirst"] = fresh()
				CompiledProduct(nil, nil, cG, in, res["MatrixFirst"], nil, MatrixFirst, nil)
				res["NormalRange"] = fresh()
				CompiledProductRange(cFinv, cm, nil, in, res["NormalRange"], nil, Normal, lo, hi, nil)
				res["MatrixFirstRange"] = fresh()
				CompiledProductRange(nil, nil, cG, in, res["MatrixFirstRange"], nil, MatrixFirst, lo, hi, nil)
				return res
			}
			on := run()
			prev := gf.SetAffineKernels(false)
			off := run()
			gf.SetAffineKernels(prev)

			for i := range seed {
				want := map[string][]byte{
					"Apply":            xorBytes(seed[i], prod[i]),
					"ApplyOverwrite":   prod[i],
					"Normal":           chained[i],
					"MatrixFirst":      chained[i],
					"NormalRange":      splice(seed[i], chained[i], lo, hi),
					"MatrixFirstRange": splice(seed[i], chained[i], lo, hi),
				}
				for name, w := range want {
					if !bytes.Equal(on[name][i], w) {
						t.Fatalf("GF%d size=%d %s (affine on): row %d differs from the scalar product", f.W(), size, name, i)
					}
					if !bytes.Equal(off[name][i], w) {
						t.Fatalf("GF%d size=%d %s (affine off after Compile): row %d differs from the scalar product", f.W(), size, name, i)
					}
				}
			}
		}
	}
}

func xorBytes(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// splice returns base with [lo, hi) taken from over.
func splice(base, over []byte, lo, hi int) []byte {
	out := append([]byte(nil), base...)
	copy(out[lo:hi], over[lo:hi])
	return out
}
