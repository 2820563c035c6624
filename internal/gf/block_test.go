package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refBlock is the scalar reference for RowBlock.Apply: out[rows[r]]
// (overwritten or accumulated) plus Σ consts[r][j] * srcs[j].
func refBlock(f Field, out, srcs [][]byte, rows []int, consts [][]uint32, overwrite bool) {
	for r, i := range rows {
		if overwrite {
			zeroRegion(out[i])
		}
		refMultiXOR(f, out[i], srcs, consts[r])
	}
}

// randBlockRows draws a rows x cols coefficient block: each row keeps a
// random subset of a shared support (so blocks see zero terms inside
// their union), with 0 and 1 overrepresented.
func randBlockRows(rng *rand.Rand, f Field, rows, cols int) [][]uint32 {
	support := make([]bool, cols)
	for j := range support {
		support[j] = rng.Intn(4) != 0
	}
	consts := make([][]uint32, rows)
	for r := range consts {
		consts[r] = randConsts(rng, f, cols)
		for j, in := range support {
			if !in {
				consts[r][j] = 0
			}
		}
	}
	return consts
}

// compileOne compiles rows[r] = consts[r] as one block.
func compileOne(f Field, rows []int, consts [][]uint32) *RowBlock {
	return CompileBlock(f, rows, consts, []int{len(rows)})[0]
}

// checkBlock compiles consts as one block writing out rows rows of a
// len(rows)+2-region output, applies it in both modes and compares with
// the reference; regions outside the block must stay untouched.
func checkBlock(t *testing.T, f Field, rows []int, consts [][]uint32, srcs [][]byte, size int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := compileOne(f, rows, consts)
	for _, overwrite := range []bool{false, true} {
		out := randSrcs(rng, len(rows)+2, size)
		want := make([][]byte, len(out))
		for i := range out {
			want[i] = append([]byte(nil), out[i]...)
		}
		b.Apply(out, srcs, overwrite)
		refBlock(f, want, srcs, rows, consts, overwrite)
		for i := range out {
			if !bytes.Equal(out[i], want[i]) {
				t.Fatalf("GF%d rows=%v srcs=%d size=%d overwrite=%v: output %d differs",
					f.W(), rows, len(srcs), size, overwrite, i)
			}
		}
	}
}

// TestBlockMatchesScalar: every row count up to BlockRows, source
// counts below, at and past the batch width, and lengths from empty
// through below one chunk, on chunk boundaries and with word-sized and
// 8-byte-loop tails, on both kernel paths and in both modes.
func TestBlockMatchesScalar(t *testing.T) {
	forBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(410))
		for _, f := range []Field{GF8, GF16, GF32} {
			wb := f.WordBytes()
			for nr := 1; nr <= BlockRows; nr++ {
				for _, ns := range []int{1, 3, blockBatch, blockBatch + 1, 2*blockBatch + 5} {
					for _, size := range []int{0, wb, 8 + wb, 40, 56 + wb, 64, 64 + wb, 192 + 8, 248 + wb, 1024, 4096 + 8} {
						size -= size % wb
						consts := randBlockRows(rng, f, nr, ns)
						rows := rng.Perm(nr + 2)[:nr]
						srcs := randSrcs(rng, ns, size)
						checkBlock(t, f, rows, consts, srcs, size, rng.Int63())
					}
				}
			}
		}
	})
}

// TestBlockEmptySupport: a block of all-zero rows overwrites its rows
// with zeros and leaves them alone when accumulating, over whole chunks
// and with a tail.
func TestBlockEmptySupport(t *testing.T) {
	forBothKernelPaths(t, func(t *testing.T) {
		for _, f := range []Field{GF8, GF16, GF32} {
			for _, size := range []int{128, 128 + 8} {
				srcs := randSrcs(rand.New(rand.NewSource(411)), 3, size)
				checkBlock(t, f, []int{0, 2}, [][]uint32{{0, 0, 0}, {0, 0, 0}}, srcs, size, 412)
			}
		}
	})
}

// TestBlockAffineImage: every stored matrix, evaluated the way the
// kernel evaluates it, maps each basis word to coefficient times that
// word at every word position — the property planverify proves.
func TestBlockAffineImage(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	var img [AffineImageWords]uint32
	for _, f := range []Field{GF8, GF16, GF32} {
		consts := randBlockRows(rng, f, BlockRows, 9)
		b := compileOne(f, []int{0, 1, 2, 3}, consts)
		plane := AffineImageWords / f.W()
		for r := range consts {
			for k, j := range b.Cols() {
				b.AffineImage(r, k, &img)
				for bit := 0; bit < f.W(); bit++ {
					x := uint32(1) << uint(bit)
					want := f.Mul(consts[r][j], x)
					for p, got := range img[bit*plane : (bit+1)*plane] {
						if got != want {
							t.Fatalf("GF%d row %d col %d: word %d maps %#x to %#x, want %#x", f.W(), r, j, p, x, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCompileBlockShapePanics: block row counts outside [1, BlockRows],
// group ends that do not cover the rows, ragged rows and a Field
// implementation from outside this package are programming errors.
func TestCompileBlockShapePanics(t *testing.T) {
	type otherField struct{ Field }
	many := BlockRows + 1
	for name, fn := range map[string]func(){
		"empty":   func() { CompileBlock(GF8, nil, nil, []int{0}) },
		"large":   func() { CompileBlock(GF8, make([]int, many), make([][]uint32, many), []int{many}) },
		"gap":     func() { CompileBlock(GF8, []int{0, 1, 2}, [][]uint32{{1}, {1}, {1}}, []int{1, 1, 3}) },
		"short":   func() { CompileBlock(GF8, []int{0, 1}, [][]uint32{{1}, {1}}, []int{1}) },
		"ragged":  func() { CompileBlock(GF8, []int{0, 1}, [][]uint32{{1, 2}, {1}}, []int{2}) },
		"foreign": func() { CompileBlock(otherField{GF8}, []int{0}, [][]uint32{{1, 2}}, []int{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CompileBlock did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkBlock compares one R-row block against R 1-row blocks over
// the same sources: the source traffic the block saves.
func BenchmarkBlock(b *testing.B) {
	const size = 16 << 10
	rng := rand.New(rand.NewSource(414))
	for _, f := range []Field{GF8, GF16, GF32} {
		for _, ns := range []int{14, 252} {
			consts := make([][]uint32, BlockRows)
			for r := range consts {
				consts[r] = randConsts(rng, f, ns)
				for j := range consts[r] {
					consts[r][j] |= 2
				}
			}
			srcs := randSrcs(rng, ns, size)
			out := randSrcs(rng, BlockRows, size)
			rows := []int{0, 1, 2, 3}
			b.Run(fmt.Sprintf("GF%d/srcs=%d/block", f.W(), ns), func(b *testing.B) {
				blk := compileOne(f, rows, consts)
				b.SetBytes(int64(BlockRows * ns * size))
				for i := 0; i < b.N; i++ {
					blk.Apply(out, srcs, true)
				}
			})
			b.Run(fmt.Sprintf("GF%d/srcs=%d/rows", f.W(), ns), func(b *testing.B) {
				blks := make([]*RowBlock, BlockRows)
				for r := range blks {
					blks[r] = compileOne(f, rows[r:r+1], consts[r:r+1])
				}
				b.SetBytes(int64(BlockRows * ns * size))
				for i := 0; i < b.N; i++ {
					for _, blk := range blks {
						blk.Apply(out, srcs, false)
					}
				}
			})
		}
	}
}
