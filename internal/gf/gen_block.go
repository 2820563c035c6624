//go:build ignore

// gen_block writes block_amd64.s, the multi-row GF2P8AFFINEQB
// dot-product kernels (see block.go). Regenerate with
//
//	go generate ./internal/gf
//
// Each kernel keeps its R output rows in registers while it streams a
// batch of sources, so every row count needs its own unrolled body. One
// TEXT symbol per word width dispatches on the row count once per call
// and then runs the body for that R.
package main

import (
	"bytes"
	"fmt"
	"os"
)

// blockRows must equal gf.BlockRows: the generator emits bodies for
// R = 1..blockRows (TestBlockMatchesScalar covers every R).
const blockRows = 4

// Register plan, shared by all widths:
//
//	DI  *blockArgs          BX  sources in this batch   CX  n (bytes)
//	DX  chunk offset        R9  source index            R10 region pointer
//	R11 matrix pointer      R12 accumulate mask: bit r set adds row r
//	                            to its destination, clear stores it
//	Z0..Z(R-1)  row accumulators (planar at w=16/32)
//	Z24, Z25    affine products
//	Z26, Z27, Z30, Z31  the source vector and its plane rotations
//	Z28, Z29    planarizing permutation and its inverse
var planeRegs = []string{"Z30", "Z31", "Z27", "Z26"}

type width struct {
	w      int
	planes int      // word bytes: one 8x8 block per (output, input) byte
	rot    []string // shuffle producing plane rotation s, s >= 1
	perm   string   // planarizing VPERMB table (w > 8)
}

var widths = []width{
	{w: 8, planes: 1},
	{w: 16, planes: 2, rot: []string{"VSHUFI64X2 $0x4E"}, perm: "p16"},
	{w: 32, planes: 4, rot: []string{"VSHUFI32X4 $0x39", "VSHUFI32X4 $0x4E", "VSHUFI32X4 $0x93"}, perm: "p32"},
}

func main() {
	var b bytes.Buffer
	p := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
	p("// Code generated by gen_block.go; DO NOT EDIT.")
	p("")
	p("//go:build amd64")
	p("")
	p("#include \"textflag.h\"")
	p("#include \"go_asm.h\"")
	b.WriteString(tables)
	for _, wd := range widths {
		emit(p, wd)
	}
	if err := os.WriteFile("block_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// tables holds the VPERMB permutations between the interleaved word
// layout and the planar one. GF2P8AFFINEQB transforms each byte with
// the matrix of its own qword lane, so at w=16/32 the kernels group all
// bytes of word-lane position i together (plane i) and apply block A_ij
// (output byte i from input byte j) by rotating plane j onto plane
// position i under a matrix vector holding A_ij in plane i's qwords.
const tables = `
// Planarizing permutation for GF(2^16): low bytes of the 32 words to
// bytes 0..31, high bytes to bytes 32..63.
DATA p16<>+0x00(SB)/8, $0x0e0c0a0806040200
DATA p16<>+0x08(SB)/8, $0x1e1c1a1816141210
DATA p16<>+0x10(SB)/8, $0x2e2c2a2826242220
DATA p16<>+0x18(SB)/8, $0x3e3c3a3836343230
DATA p16<>+0x20(SB)/8, $0x0f0d0b0907050301
DATA p16<>+0x28(SB)/8, $0x1f1d1b1917151311
DATA p16<>+0x30(SB)/8, $0x2f2d2b2927252321
DATA p16<>+0x38(SB)/8, $0x3f3d3b3937353331
GLOBL p16<>(SB), RODATA|NOPTR, $64

// Inverse: byte 2k <- k, byte 2k+1 <- 32+k.
DATA p16i<>+0x00(SB)/8, $0x2303220221012000
DATA p16i<>+0x08(SB)/8, $0x2707260625052404
DATA p16i<>+0x10(SB)/8, $0x2b0b2a0a29092808
DATA p16i<>+0x18(SB)/8, $0x2f0f2e0e2d0d2c0c
DATA p16i<>+0x20(SB)/8, $0x3313321231113010
DATA p16i<>+0x28(SB)/8, $0x3717361635153414
DATA p16i<>+0x30(SB)/8, $0x3b1b3a1a39193818
DATA p16i<>+0x38(SB)/8, $0x3f1f3e1e3d1d3c1c
GLOBL p16i<>(SB), RODATA|NOPTR, $64

// Planarizing permutation for GF(2^32): byte j of each of the 16 words
// to 16-byte plane j.
DATA p32<>+0x00(SB)/8, $0x1c1814100c080400
DATA p32<>+0x08(SB)/8, $0x3c3834302c282420
DATA p32<>+0x10(SB)/8, $0x1d1915110d090501
DATA p32<>+0x18(SB)/8, $0x3d3935312d292521
DATA p32<>+0x20(SB)/8, $0x1e1a16120e0a0602
DATA p32<>+0x28(SB)/8, $0x3e3a36322e2a2622
DATA p32<>+0x30(SB)/8, $0x1f1b17130f0b0703
DATA p32<>+0x38(SB)/8, $0x3f3b37332f2b2723
GLOBL p32<>(SB), RODATA|NOPTR, $64

// Inverse: byte 4k+j <- 16j+k.
DATA p32i<>+0x00(SB)/8, $0x3121110130201000
DATA p32i<>+0x08(SB)/8, $0x3323130332221202
DATA p32i<>+0x10(SB)/8, $0x3525150534241404
DATA p32i<>+0x18(SB)/8, $0x3727170736261606
DATA p32i<>+0x20(SB)/8, $0x3929190938281808
DATA p32i<>+0x28(SB)/8, $0x3b2b1b0b3a2a1a0a
DATA p32i<>+0x30(SB)/8, $0x3d2d1d0d3c2c1c0c
DATA p32i<>+0x38(SB)/8, $0x3f2f1f0f3e2e1e0e
GLOBL p32i<>(SB), RODATA|NOPTR, $64
`

func emit(p func(string, ...interface{}), wd width) {
	name := fmt.Sprintf("gf%dBlockAsm", wd.w)
	// Bytes of matrices per (source, row): one broadcast qword at w=8,
	// one 64-byte matrix vector per plane rotation otherwise.
	rowStride := 8
	if wd.w > 8 {
		rowStride = 64 * wd.planes
	}
	p("")
	p("// func %s(a *blockArgs, nsrc, rows, n int, acc uint)", name)
	p("TEXT ·%s(SB), NOSPLIT, $0-40", name)
	p("\tMOVQ    a+0(FP), DI")
	p("\tMOVQ    nsrc+8(FP), BX")
	p("\tMOVQ    rows+16(FP), AX")
	p("\tMOVQ    n+24(FP), CX")
	p("\tMOVQ    acc+32(FP), R12")
	if wd.w > 8 {
		p("\tVMOVDQU64 %s<>(SB), Z28", wd.perm)
		p("\tVMOVDQU64 %si<>(SB), Z29", wd.perm)
	}
	p("\tXORQ    DX, DX")
	for r := blockRows; r >= 2; r-- {
		p("\tCMPQ    AX, $%d", r)
		p("\tJEQ     w%dr%d", wd.w, r)
	}
	for rows := 1; rows <= blockRows; rows++ {
		body(p, wd, rows, rowStride)
	}
}

func body(p func(string, ...interface{}), wd width, rows, rowStride int) {
	l := fmt.Sprintf("w%dr%d", wd.w, rows)
	p("")
	p("%s:", l)
	for r := 0; r < rows; r++ {
		p("\tVPXORQ  Z%d, Z%d, Z%d", r, r, r)
	}
	p("\tXORQ    R9, R9")
	p("")
	p("%ssrc:", l)
	p("\tMOVQ    blockArgs_src(DI)(R9*8), R10")
	p("\tMOVQ    blockArgs_mat(DI)(R9*8), R11")
	if wd.w == 8 {
		p("\tVMOVDQU64 (R10)(DX*1), Z30")
	} else {
		p("\tVPERMB  (R10)(DX*1), Z28, Z30")
		for s, shuf := range wd.rot {
			p("\t%s, Z30, Z30, %s", shuf, planeRegs[s+1])
		}
	}
	for r := 0; r < rows; r++ {
		base := r * rowStride
		if wd.w == 8 {
			p("\tVGF2P8AFFINEQB.BCST $0, %d(R11), Z30, Z24", base)
			p("\tVPXORQ  Z24, Z%d, Z%d", r, r)
			continue
		}
		for s := 0; s < wd.planes; s += 2 {
			p("\tVGF2P8AFFINEQB $0, %d(R11), %s, Z24", base+64*s, planeRegs[s])
			p("\tVGF2P8AFFINEQB $0, %d(R11), %s, Z25", base+64*(s+1), planeRegs[s+1])
			p("\tVPTERNLOGQ $0x96, Z24, Z25, Z%d", r)
		}
	}
	p("\tINCQ    R9")
	p("\tCMPQ    R9, BX")
	p("\tJNE     %ssrc", l)
	p("")
	for r := 0; r < rows; r++ {
		if wd.w > 8 {
			p("\tVPERMB  Z%d, Z29, Z%d", r, r)
		}
		p("\tMOVQ    blockArgs_dst+%d(DI), R10", 8*r)
		p("\tTESTQ   $%d, R12", 1<<r)
		p("\tJEQ     %sst%d", l, r)
		p("\tVPXORQ  (R10)(DX*1), Z%d, Z%d", r, r)
		p("%sst%d:", l, r)
		p("\tVMOVDQU64 Z%d, (R10)(DX*1)", r)
	}
	p("\tADDQ    $64, DX")
	p("\tCMPQ    DX, CX")
	p("\tJNE     %s", l)
	p("\tVZEROUPPER")
	p("\tRET")
}
