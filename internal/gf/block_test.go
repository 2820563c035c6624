package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refBlock is the scalar reference for RowBlock.Apply: out[rows[r]]
// plus Σ consts[r][j] * srcs[j], where out[rows[r]] is first cleared
// under an overwrite apply unless bit r of the accumulate mask acc is
// set.
func refBlock(f Field, out, srcs [][]byte, rows []int, consts [][]uint32, acc uint, overwrite bool) {
	for r, i := range rows {
		if overwrite && acc>>uint(r)&1 == 0 {
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

// compileOne compiles rows[r] = consts[r] as one block of overwrite
// rows.
func compileOne(f Field, rows []int, consts [][]uint32) *RowBlock {
	return compileMasked(f, rows, consts, 0)
}

// compileMasked compiles rows[r] = consts[r] as one block in which row
// r accumulates when bit r of acc is set.
func compileMasked(f Field, rows []int, consts [][]uint32, acc uint) *RowBlock {
	modes := make([]bool, len(rows))
	for r := range modes {
		modes[r] = acc>>uint(r)&1 == 1
	}
	return CompileBlock(f, rows, consts, []int{len(rows)}, modes)[0]
}

// checkBlock compiles consts as one block writing out rows rows of a
// len(rows)+2-region output, with the rows in acc's bits accumulating,
// applies it in both modes and compares with the reference; regions
// outside the block must stay untouched.
func checkBlock(t *testing.T, f Field, rows []int, consts [][]uint32, acc uint, srcs [][]byte, size int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := compileMasked(f, rows, consts, acc)
	for r := range rows {
		if b.Accumulates(r) != (acc>>uint(r)&1 == 1) {
			t.Fatalf("GF%d rows=%v acc=%#x: row %d compiled in the wrong mode", f.W(), rows, acc, r)
		}
	}
	for _, overwrite := range []bool{false, true} {
		out := randSrcs(rng, len(rows)+2, size)
		want := make([][]byte, len(out))
		for i := range out {
			want[i] = append([]byte(nil), out[i]...)
		}
		b.Apply(out, srcs, overwrite)
		refBlock(f, want, srcs, rows, consts, acc, overwrite)
		for i := range out {
			if !bytes.Equal(out[i], want[i]) {
				t.Fatalf("GF%d rows=%v acc=%#x srcs=%d size=%d overwrite=%v: output %d differs",
					f.W(), rows, acc, len(srcs), size, overwrite, i)
			}
		}
	}
}

// TestBlockMatchesScalar: every row count up to BlockRows with every
// accumulate mask of its rows, source counts below, at and past the
// batch width, and lengths from empty through below one chunk, on
// chunk boundaries and with word-sized and 8-byte-loop tails, on both
// kernel paths and in both modes.
func TestBlockMatchesScalar(t *testing.T) {
	forBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(410))
		for _, f := range []Field{GF8, GF16, GF32} {
			wb := f.WordBytes()
			for nr := 1; nr <= BlockRows; nr++ {
				var acc uint // steps through every mask of nr rows
				for _, ns := range []int{1, 3, blockBatch, blockBatch + 1, 2*blockBatch + 5} {
					for _, size := range []int{0, wb, 8 + wb, 40, 56 + wb, 64, 64 + wb, 192 + 8, 248 + wb, 1024, 4096 + 8} {
						size -= size % wb
						consts := randBlockRows(rng, f, nr, ns)
						rows := rng.Perm(nr + 2)[:nr]
						srcs := randSrcs(rng, ns, size)
						checkBlock(t, f, rows, consts, acc, srcs, size, rng.Int63())
						acc = (acc + 1) % (1 << uint(nr))
					}
				}
			}
		}
	})
}

// TestBlockEmptySupport: a block of all-zero rows overwrites its
// overwrite rows with zeros and leaves its accumulate rows alone, and
// every row alone when accumulating, over whole chunks and with a
// tail.
func TestBlockEmptySupport(t *testing.T) {
	forBothKernelPaths(t, func(t *testing.T) {
		for _, f := range []Field{GF8, GF16, GF32} {
			for _, size := range []int{128, 128 + 8} {
				srcs := randSrcs(rand.New(rand.NewSource(411)), 3, size)
				checkBlock(t, f, []int{0, 2}, [][]uint32{{0, 0, 0}, {0, 0, 0}}, 0b10, srcs, size, 412)
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
// group ends that do not cover the rows, ragged rows, a mode list of
// the wrong length and a Field implementation from outside this
// package are programming errors.
func TestCompileBlockShapePanics(t *testing.T) {
	type otherField struct{ Field }
	many := BlockRows + 1
	for name, fn := range map[string]func(){
		"empty":   func() { CompileBlock(GF8, nil, nil, []int{0}, nil) },
		"large":   func() { CompileBlock(GF8, make([]int, many), make([][]uint32, many), []int{many}, nil) },
		"gap":     func() { CompileBlock(GF8, []int{0, 1, 2}, [][]uint32{{1}, {1}, {1}}, []int{1, 1, 3}, nil) },
		"short":   func() { CompileBlock(GF8, []int{0, 1}, [][]uint32{{1}, {1}}, []int{1}, nil) },
		"ragged":  func() { CompileBlock(GF8, []int{0, 1}, [][]uint32{{1, 2}, {1}}, []int{2}, nil) },
		"modes":   func() { CompileBlock(GF8, []int{0, 1}, [][]uint32{{1}, {1}}, []int{2}, []bool{true}) },
		"foreign": func() { CompileBlock(otherField{GF8}, []int{0}, [][]uint32{{1, 2}}, []int{1}, nil) },
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
