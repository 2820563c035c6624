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

// TestCompiledApplyMatchesApply: the lowered form computes exactly
// what applying the matrix word by word computes (refProduct, over
// matrix.MulVec), with one operation counted per nonzero coefficient.
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
			want := refProduct(f, m, in)

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

			for i := range want {
				if !bytes.Equal(want[i], compiled[i]) {
					t.Fatalf("row %d differs", i)
				}
			}
			if compiledStats.MultXORs() != int64(m.NNZ()) {
				t.Fatalf("op count %d, want %d", compiledStats.MultXORs(), m.NNZ())
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

	ref := refProduct(f, finv, refProduct(f, s, in))

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
// below one 64-byte chunk, with word tails, and beyond one tile. A
// compile whose last three rows accumulate keeps the same blocks, one
// of them mixed, and its ApplyOverwrite adds those rows in.
func TestCompiledBlocksAffineOnOff(t *testing.T) {
	setTileSize(1 << 10)
	defer setTileSize(0)
	rng := rand.New(rand.NewSource(158))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		m := blockTestMatrix(rng, f)
		finv := randInvertible(rng, f, m.Rows())
		cm, cFinv, cG := Compile(f, m), Compile(f, finv), Compile(f, finv.Mul(m))
		const acc = 3
		cMixed := CompileAccumulating(f, m, acc)
		if got := len(cm.Blocks()); got != 5 {
			t.Fatalf("GF%d: %d blocks, want 5 (rows 0,2,3,5 | 7 | 1,6 | 4 | 8)", f.W(), got)
		}
		if got := len(cMixed.Blocks()); got != 5 || cMixed.Accumulating() != acc {
			t.Fatalf("GF%d: accumulating compile has %d blocks and %d accumulating rows, want 5 and %d", f.W(), got, cMixed.Accumulating(), acc)
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
				res["ApplyOverwriteMixed"] = fresh()
				cMixed.ApplyOverwrite(in, res["ApplyOverwriteMixed"], nil)
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
				mixed := prod[i]
				if i >= m.Rows()-acc {
					mixed = xorBytes(seed[i], prod[i])
				}
				want := map[string][]byte{
					"Apply":               xorBytes(seed[i], prod[i]),
					"ApplyOverwrite":      prod[i],
					"ApplyOverwriteMixed": mixed,
					"Normal":              chained[i],
					"MatrixFirst":         chained[i],
					"NormalRange":         splice(seed[i], chained[i], lo, hi),
					"MatrixFirstRange":    splice(seed[i], chained[i], lo, hi),
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

// TestCompiledFirstUseConcurrent: a freshly compiled matrix lowers its
// row blocks' table path on first use. Several goroutines applying the
// same fresh matrix at once, over regions with a sub-64-byte tail and
// with the affine kernels on and off, must all get the scalar product;
// under -race this also proves the lazy lowering is race-free.
func TestCompiledFirstUseConcurrent(t *testing.T) {
	const workers = 4
	rng := rand.New(rand.NewSource(159))
	for _, affine := range []bool{true, false} {
		prev := gf.SetAffineKernels(affine)
		for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
			m := blockTestMatrix(rng, f)
			for _, size := range []int{40, 4<<10 + 8} {
				in := randRegions(rng, m.Cols(), size)
				want := refProduct(f, m, in)
				cm := Compile(f, m)
				outs := make([][][]byte, workers)
				for w := range outs {
					outs[w] = randRegions(rng, m.Rows(), size)
				}
				var start, done sync.WaitGroup
				start.Add(1)
				for w := 0; w < workers; w++ {
					done.Add(1)
					go func(out [][]byte) {
						defer done.Done()
						start.Wait()
						cm.ApplyOverwrite(in, out, nil)
					}(outs[w])
				}
				start.Done()
				done.Wait()
				for w, out := range outs {
					for i := range want {
						if !bytes.Equal(out[i], want[i]) {
							t.Fatalf("affine=%v GF%d size=%d: worker %d row %d differs from the scalar product", affine, f.W(), size, w, i)
						}
					}
				}
			}
		}
		gf.SetAffineKernels(prev)
	}
}
