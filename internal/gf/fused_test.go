package gf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refMultiXOR is the scalar reference for one coefficient row: one
// word-at-a-time Field.Mul accumulation per nonzero constant, the
// definition every row of a RowBlock must match bit for bit.
func refMultiXOR(f Field, dst []byte, srcs [][]byte, consts []uint32) {
	wb := f.WordBytes()
	for k, a := range consts {
		if a == 0 {
			continue
		}
		for i := 0; i+wb <= len(dst); i += wb {
			w := readWord(srcs[k][i:], wb)
			putWord(dst[i:], wb, readWord(dst[i:], wb)^f.Mul(a, w))
		}
	}
}

func readWord(b []byte, wb int) uint32 {
	switch wb {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	default:
		return binary.LittleEndian.Uint32(b)
	}
}

func putWord(b []byte, wb int, w uint32) {
	switch wb {
	case 1:
		b[0] = byte(w)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(w))
	default:
		binary.LittleEndian.PutUint32(b, w)
	}
}

func randConsts(rng *rand.Rand, f Field, n int) []uint32 {
	mask := uint32(f.Order() - 1)
	consts := make([]uint32, n)
	for i := range consts {
		switch rng.Intn(5) {
		case 0:
			consts[i] = 0 // must be skipped
		case 1:
			consts[i] = 1 // plain-XOR lane
		default:
			consts[i] = rng.Uint32() & mask
		}
	}
	return consts
}

func randSrcs(rng *rand.Rand, n, size int) [][]byte {
	srcs := make([][]byte, n)
	for i := range srcs {
		srcs[i] = make([]byte, size)
		rng.Read(srcs[i])
	}
	return srcs
}

// TestMultXORsMultiMatchesScalar: the multi-term multiply-XOR
// dst ^= Σ consts[k]·srcs[k], run as a 1-row RowBlock in accumulate
// mode, equals the scalar per-term reference for every field, across
// term counts that exercise batching (beyond blockBatch) and region
// lengths that exercise the scalar tails (0, a single word, 8-byte-loop
// remainders, and the 64-byte affine prefix plus its tail). Runs on
// both kernel paths.
func TestMultXORsMultiMatchesScalar(t *testing.T) {
	forBothKernelPaths(t, testMultXORsMultiMatchesScalar)
}

func testMultXORsMultiMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, f := range []Field{GF8, GF16, GF32} {
		wb := f.WordBytes()
		sizes := []int{0, wb, 8, 8 + wb, 24, 56 + wb, 256, 248 + wb}
		for _, terms := range []int{1, 2, 3, blockBatch, blockBatch + 1, 2*blockBatch + 3} {
			for _, size := range sizes {
				consts := randConsts(rng, f, terms)
				srcs := randSrcs(rng, terms, size)
				dst := make([]byte, size)
				rng.Read(dst)
				want := append([]byte(nil), dst...)

				compileOne(f, []int{0}, [][]uint32{consts}).Apply([][]byte{dst}, srcs, false)
				refMultiXOR(f, want, srcs, consts)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("GF%d terms=%d size=%d: byte %d = %#x want %#x",
							f.W(), terms, size, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestCompileRowMatchesMulti: a compiled row — a 1-row RowBlock —
// computes the same result as one MultXORs per term, skips zero
// coefficients (tolerating nil sources in those lanes), and reports the
// nonzero term count. Runs on both kernel paths.
func TestCompileRowMatchesMulti(t *testing.T) {
	forBothKernelPaths(t, testCompileRowMatchesMulti)
}

func testCompileRowMatchesMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for _, f := range []Field{GF8, GF16, GF32} {
		size := 40 * f.WordBytes()
		consts := randConsts(rng, f, 9)
		consts[0], consts[4], consts[8] = 0, 0, 0
		srcs := randSrcs(rng, 9, size)
		srcs[0], srcs[4], srcs[8] = nil, nil, nil // zero lanes must never be touched

		blk := compileOne(f, []int{0}, [][]uint32{consts})
		nz := 0
		for _, a := range consts {
			if a != 0 {
				nz++
			}
		}
		if blk.Terms() != nz {
			t.Fatalf("GF%d: Terms() = %d, want %d", f.W(), blk.Terms(), nz)
		}

		dst := make([]byte, size)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		blk.Apply([][]byte{dst}, srcs, false)

		for k, a := range consts {
			if a == 0 {
				continue
			}
			f.MultXORs(want, srcs[k], a)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("GF%d: byte %d = %#x want %#x", f.W(), i, dst[i], want[i])
			}
		}
	}
}

// FuzzFusedAgainstScalar drives compiled row blocks with arbitrary
// constants, block shapes and buffer contents and cross-checks the
// scalar Field.Mul reference on all three fields, on both the affine
// and the portable table kernels, in overwrite and accumulate mode.
// The buffer is truncated to each field's word multiple, so the
// input's length supplies regions shorter than one 64-byte chunk and
// regions with a table-path tail. shape selects the block: bits 0-1
// the row count less one (up to BlockRows), bit 2 overwrite instead of
// accumulate, bits 3-7 the source count less one (up to two batches);
// it also seeds which of 0, 1, a, b and c each term gets. Bit r of acc
// compiles row r to accumulate under an overwrite apply. Every block
// is compiled afresh, so each run also lowers its table path on first
// use.
func FuzzFusedAgainstScalar(f *testing.F) {
	f.Add(uint32(2), uint32(3), uint32(0x1001), uint32(0x1B), uint8(0x0A), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint32(0), uint32(1), uint32(0xFFFFFFFF), uint32(0x07), uint8(0x05), make([]byte, 40))
	f.Add(uint32(0x8001), uint32(0xDEAD), uint32(0xBEEF), uint32(0), uint8(0), []byte{0xFF})
	f.Add(uint32(7), uint32(0x1F0F), uint32(0xA5A5A5A5), uint32(0xFF), uint8(0x09), make([]byte, 200))

	f.Fuzz(func(t *testing.T, a, b, c, shape uint32, acc uint8, data []byte) {
		nrows := 1 + int(shape%BlockRows)
		overwrite := shape>>2&1 == 1
		nsrcs := 1 + int(shape>>3&31)
		for _, affine := range []bool{true, false} {
			func() {
				defer SetAffineKernels(SetAffineKernels(affine))
				for _, field := range []Field{GF8, GF16, GF32} {
					wb := field.WordBytes()
					n := len(data) - len(data)%wb
					if n == 0 {
						continue
					}
					mask := uint32(field.Order() - 1)
					pool := []uint32{0, 1, a & mask, b & mask, c & mask}
					fuzzRow(t, field, pool[2:], uint(acc)&1, data[:n], affine)
					fuzzBlock(t, field, pool, shape, nrows, nsrcs, uint(acc)%(1<<uint(nrows)), overwrite, data[:n], affine)
				}
			}()
		}
	})
}

// fuzzRow checks a 1-row block over three sources, with the three
// fuzzed constants and the row's mode from acc, in both apply modes.
func fuzzRow(t *testing.T, field Field, consts []uint32, acc uint, data []byte, affine bool) {
	n := len(data)
	srcs := [][]byte{data, make([]byte, n), make([]byte, n)}
	for i := 0; i < n; i++ {
		srcs[1][i] = byte(i * 7)
		srcs[2][i] = data[n-1-i]
	}
	for _, overwrite := range []bool{false, true} {
		dst := append([]byte(nil), data...)
		want := append([]byte(nil), dst...)
		compileMasked(field, []int{0}, [][]uint32{consts}, acc).Apply([][]byte{dst}, srcs, overwrite)
		refBlock(field, [][]byte{want}, srcs, []int{0}, [][]uint32{consts}, acc, overwrite)
		if !bytes.Equal(dst, want) {
			t.Fatalf("GF%d affine=%v acc=%d overwrite=%v len=%d: row block differs from the scalar reference", field.W(), affine, acc, overwrite, n)
		}
	}
}

// fuzzBlock checks one RowBlock of nrows rows over nsrcs sources, with
// the rows in acc's bits accumulating, terms drawn from pool and
// regions derived from data.
func fuzzBlock(t *testing.T, field Field, pool []uint32, shape uint32, nrows, nsrcs int, acc uint, overwrite bool, data []byte, affine bool) {
	n := len(data)
	rng := rand.New(rand.NewSource(int64(shape)))
	consts := make([][]uint32, nrows)
	for r := range consts {
		consts[r] = make([]uint32, nsrcs)
		for k := range consts[r] {
			consts[r][k] = pool[rng.Intn(len(pool))]
		}
	}
	srcs := make([][]byte, nsrcs)
	for k := range srcs {
		srcs[k] = make([]byte, n)
		for i := range srcs[k] {
			srcs[k][i] = data[(i*(k+1)+k)%n] ^ byte(k)
		}
	}
	rows := make([]int, nrows)
	out := make([][]byte, nrows+1)
	want := make([][]byte, nrows+1)
	for i := range out {
		out[i] = make([]byte, n)
		for p := range out[i] {
			out[i][p] = data[(p+i)%n]
		}
		want[i] = append([]byte(nil), out[i]...)
	}
	for r := range rows {
		rows[r] = nrows - r // reversed, and output 0 stays untouched
	}
	compileMasked(field, rows, consts, acc).Apply(out, srcs, overwrite)
	refBlock(field, want, srcs, rows, consts, acc, overwrite)
	for i := range out {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("GF%d affine=%v rows=%d acc=%#x srcs=%d overwrite=%v len=%d: output %d differs from the scalar reference",
				field.W(), affine, nrows, acc, nsrcs, overwrite, n, i)
		}
	}
}
