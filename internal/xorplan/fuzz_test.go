package xorplan

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// FuzzProgramVsScalar drives arbitrary matrices over all three fields
// through Compile + RunOverwrite/RunAccumulate, and the accumulate
// lowering + RunAccumulate, and cross-checks every
// output word against scalar field arithmetic (gf.Field.Mul — fully
// independent of the table, affine and XOR region kernels). The fuzzer
// owns the whole backend: polynomial lowering, CSE/Prim scheduling,
// slot allocation, tiling and the fused XOR kernels all sit on the
// checked path. (Runs its seed corpus under plain `go test`; explore
// with `go test -fuzz FuzzProgramVsScalar`.)
func FuzzProgramVsScalar(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte("\x01\x00\x00\x00abcdefgh"))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(7), bytes.Repeat([]byte{0x35, 0xA7, 2, 0xFF}, 32))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(255), bytes.Repeat([]byte{9, 0, 0x80, 1, 0x55}, 40))

	fields := []gf.Field{gf.GF8, gf.GF16, gf.GF32}
	f.Fuzz(func(t *testing.T, fieldSel, r, c, flags uint8, raw []byte) {
		fld := fields[int(fieldSel)%len(fields)]
		rows := int(r%5) + 1
		cols := int(c%5) + 1
		wb := fld.WordBytes()
		coefBytes := rows * cols * 4
		if len(raw) < coefBytes+cols*wb {
			return
		}
		mask := uint32((fld.Order() - 1) & 0xFFFFFFFF)
		m := matrix.New(fld, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, binary.LittleEndian.Uint32(raw[4*(i*cols+j):])&mask)
			}
		}
		data := raw[coefBytes:]
		words := len(data) / (cols * wb)
		if words > 1024 {
			words = 1024
		}
		size := words * wb
		in := make([][]byte, cols)
		for j := range in {
			in[j] = data[j*size : (j+1)*size]
		}

		prog, err := Compile(fld, m)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if prog.XORs() > prog.Ones() {
			t.Fatalf("scheduled %d XORs, naive lowering needs %d", prog.XORs(), prog.Ones())
		}

		word := func(region []byte, w int) uint32 {
			var v uint32
			for b := 0; b < wb; b++ {
				v |= uint32(region[w*wb+b]) << (8 * b)
			}
			return v
		}
		want := make([][]uint32, rows)
		for i := range want {
			want[i] = make([]uint32, words)
			for j := 0; j < cols; j++ {
				a := m.At(i, j)
				if a == 0 {
					continue
				}
				for w := 0; w < words; w++ {
					want[i][w] ^= fld.Mul(a, word(in[j], w))
				}
			}
		}
		check := func(mode string, out [][]byte, base [][]byte, loWord int) {
			for i := range out {
				for w := 0; w < words; w++ {
					got := word(out[i], w)
					exp := want[i][w]
					if w < loWord {
						exp = word(base[i], w) // outside the run window: untouched
					} else if base != nil && mode == "accumulate" {
						exp ^= word(base[i], w)
					}
					if got != exp {
						t.Fatalf("%s: row %d word %d = %#x, want %#x (gf%d %dx%d)",
							mode, i, w, got, exp, fld.W(), rows, cols)
					}
				}
			}
		}

		stale := byte(flags | 1)
		out := make([][]byte, rows)
		for i := range out {
			out[i] = bytes.Repeat([]byte{stale}, size)
		}
		prog.RunOverwrite(in, out, 0, size)
		check("overwrite", out, nil, 0)

		// Partial window: [loWord, words), bytes below left stale.
		loWord := int(flags) % words
		base := make([][]byte, rows)
		outW := make([][]byte, rows)
		for i := range outW {
			base[i] = bytes.Repeat([]byte{stale ^ 0xFF}, size)
			outW[i] = append([]byte(nil), base[i]...)
		}
		prog.RunOverwrite(in, outW, loWord*wb, size)
		check("window", outW, base, loWord)

		if !prog.HasDerivative() {
			acc := make([][]byte, rows)
			for i := range acc {
				acc[i] = append([]byte(nil), base[i]...)
			}
			prog.RunAccumulate(in, acc, 0, size)
			check("accumulate", acc, base, 0)
		}

		// The accumulate lowering of the same matrix never derives a row
		// from another, so it always accumulates.
		accProg, err := compile(fld, m, true)
		if err != nil {
			t.Fatalf("compile for accumulating: %v", err)
		}
		if accProg.HasDerivative() || accProg.XORs() > accProg.Ones() {
			t.Fatalf("accumulate program: derivative %v, %d XORs against %d ones", accProg.HasDerivative(), accProg.XORs(), accProg.Ones())
		}
		acc := make([][]byte, rows)
		for i := range acc {
			acc[i] = append([]byte(nil), base[i]...)
		}
		accProg.RunAccumulate(in, acc, 0, size)
		check("accumulate", acc, base, 0)
	})
}
