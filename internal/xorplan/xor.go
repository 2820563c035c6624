package xorplan

import (
	"encoding/binary"
	"os"

	"ppm/internal/gf"
)

// Fused XOR kernels: dst = s1 ^ s2 [^ s3 [^ s4 [^ s5]]] over
// equal-length regions. Bodies 64 bytes and larger go through the
// AVX-512 or AVX2 VPXOR kernels when the CPU has them; the remainder
// runs as 64-bit word sweeps with byte tails. Exact aliasing of dst
// with any source is allowed — every kernel loads a block's sources
// before storing the block — which is what the accumulate forms and
// in-place slot reuse rely on.

// vecLevel is the active vector-XOR ISA for this process: the hardware
// level from gf.VectorISALevel, or VecNone under PPM_NO_VEC (the
// escape hatch to the portable word sweeps).
var vecLevel = detectVec()

func detectVec() int {
	if os.Getenv("PPM_NO_VEC") != "" {
		return gf.VecNone
	}
	return gf.VectorISALevel()
}

// zeroRegion clears dst (compiles to a memclr).
//
//ppm:hotpath
func zeroRegion(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

//ppm:hotpath
func xorSet2(dst, a, b []byte) {
	n := len(dst)
	i := 0
	if m := n &^ 63; m > 0 {
		switch vecLevel {
		case gf.VecAVX512:
			xor2AVX512(&dst[0], &a[0], &b[0], m)
			i = m
		case gf.VecAVX2:
			xor2AVX2(&dst[0], &a[0], &b[0], m)
			i = m
		}
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

//ppm:hotpath
func xorSet3(dst, a, b, c []byte) {
	n := len(dst)
	i := 0
	if m := n &^ 63; m > 0 {
		switch vecLevel {
		case gf.VecAVX512:
			xor3AVX512(&dst[0], &a[0], &b[0], &c[0], m)
			i = m
		case gf.VecAVX2:
			xor3AVX2(&dst[0], &a[0], &b[0], &c[0], m)
			i = m
		}
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^
				binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i] ^ c[i]
	}
}

//ppm:hotpath
func xorSet4(dst, a, b, c, d []byte) {
	n := len(dst)
	i := 0
	if m := n &^ 63; m > 0 {
		switch vecLevel {
		case gf.VecAVX512:
			xor4AVX512(&dst[0], &a[0], &b[0], &c[0], &d[0], m)
			i = m
		case gf.VecAVX2:
			xor4AVX2(&dst[0], &a[0], &b[0], &c[0], &d[0], m)
			i = m
		}
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^
				binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:])^
				binary.LittleEndian.Uint64(d[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i] ^ c[i] ^ d[i]
	}
}

//ppm:hotpath
func xorSet5(dst, a, b, c, d, e []byte) {
	n := len(dst)
	i := 0
	if m := n &^ 63; m > 0 {
		switch vecLevel {
		case gf.VecAVX512:
			xor5AVX512(&dst[0], &a[0], &b[0], &c[0], &d[0], &e[0], m)
			i = m
		case gf.VecAVX2:
			xor5AVX2(&dst[0], &a[0], &b[0], &c[0], &d[0], &e[0], m)
			i = m
		}
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^
				binary.LittleEndian.Uint64(b[i:])^
				binary.LittleEndian.Uint64(c[i:])^
				binary.LittleEndian.Uint64(d[i:])^
				binary.LittleEndian.Uint64(e[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i] ^ c[i] ^ d[i] ^ e[i]
	}
}

// Accumulate forms: dst ^= a [^ b [^ c [^ d]]], the K-source fused
// passes with dst as first source (alias-exact, so safe).

//ppm:hotpath
func xorAcc1(dst, a []byte) { xorSet2(dst, dst, a) }

//ppm:hotpath
func xorAcc2(dst, a, b []byte) { xorSet3(dst, dst, a, b) }

//ppm:hotpath
func xorAcc3(dst, a, b, c []byte) { xorSet4(dst, dst, a, b, c) }

//ppm:hotpath
func xorAcc4(dst, a, b, c, d []byte) { xorSet5(dst, dst, a, b, c, d) }
