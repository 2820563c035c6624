// Package gf implements arithmetic over the Galois fields GF(2^8),
// GF(2^16) and GF(2^32) that the PPM paper's erasure codes are defined
// over, together with the bulk region operation mult_XORs that the paper
// uses as its unit of computational cost.
//
// All three fields use the standard irreducible polynomials from Plank's
// GF-Complete library so that coefficient tables published for SD codes
// (e.g. SD^{2,2}_{6,4}(8|1,42,26,61)) remain meaningful here:
//
//	w = 8:  x^8  + x^4  + x^3 + x^2 + 1        (0x11D)
//	w = 16: x^16 + x^12 + x^3 + x   + 1        (0x1100B)
//	w = 32: x^32 + x^22 + x^2 + x   + 1        (0x100400007, stored as 0x400007)
//
// The region operation MultXORs(dst, src, a) multiplies every w-bit word
// of src by the constant a and XOR-sums the products into dst. One call
// per nonzero matrix coefficient is exactly the paper's mult_XORs()
// operation, so counting calls reproduces the cost figures C1..C4.
package gf

import (
	"crypto/subtle"
	"fmt"
)

// Field is w-bit Galois field arithmetic. Scalar values are carried in
// uint32 regardless of w; callers must keep them inside the field
// (values < 2^w). Implementations are safe for concurrent use: all
// mutable state is built once at package init or per call.
type Field interface {
	// W returns the word size in bits (8, 16 or 32).
	W() int
	// WordBytes returns the word size in bytes (1, 2 or 4).
	WordBytes() int
	// Order returns the number of elements in the field as a uint64
	// (2^w), usable for iteration bounds without overflow at w=32.
	Order() uint64

	// Add returns a + b (XOR; identical to subtraction).
	Add(a, b uint32) uint32
	// Mul returns the field product a * b.
	Mul(a, b uint32) uint32
	// Inv returns the multiplicative inverse of a. Inv(0) panics: a zero
	// pivot must be handled by the caller (matrix inversion treats it as
	// a singularity, never as data).
	Inv(a uint32) uint32
	// Div returns a / b. Div by zero panics, as Inv does.
	Div(a, b uint32) uint32
	// Exp returns a raised to the n-th power (n >= 0). Exp(a, 0) == 1
	// for every a, including 0, matching the convention the SD
	// construction relies on (a_0 = 1 gives all-ones rows).
	Exp(a uint32, n int) uint32

	// MultXORs computes dst[i] ^= a * src[i] over w-bit words. It is the
	// paper's mult_XORs(d0, d1, a) primitive. Both slices must have the
	// same length, a multiple of WordBytes. dst and src must not
	// partially overlap (a == 1 panics there; the regionargs lint
	// rejects aliased arguments at the call site); dst == src is
	// allowed. a == 0 is a no-op (callers normally skip zero
	// coefficients; the kernel's operation counter only counts nonzero
	// ones).
	MultXORs(dst, src []byte, a uint32)
	// MulRegion computes dst[i] = a * src[i] (overwrite, no XOR).
	MulRegion(dst, src []byte, a uint32)
}

// Supported word sizes in increasing order.
var wordSizes = []int{8, 16, 32}

// ForWord returns the field with the given word size (8, 16 or 32).
func ForWord(w int) (Field, error) {
	switch w {
	case 8:
		return GF8, nil
	case 16:
		return GF16, nil
	case 32:
		return GF32, nil
	}
	return nil, fmt.Errorf("gf: unsupported word size %d (want 8, 16 or 32)", w)
}

// MustForWord is ForWord for compile-time-known word sizes.
func MustForWord(w int) Field {
	f, err := ForWord(w)
	if err != nil {
		panic(err)
	}
	return f
}

// FieldFor returns the smallest supported field whose nonzero-element
// count can index `columns` distinct powers, i.e. columns <= 2^w - 1.
// This mirrors the paper's switching between GF(2^8), GF(2^16) and
// GF(2^32) as n*r grows (the "jagged lines" of Figures 8-10): each
// parity-check column c carries a coefficient a^c, and the powers of a
// primitive element are distinct only up to the multiplicative order
// 2^w - 1.
func FieldFor(columns int) (Field, error) {
	if columns < 0 {
		return nil, fmt.Errorf("gf: negative column count %d", columns)
	}
	for _, w := range wordSizes {
		if uint64(columns) <= (uint64(1)<<uint(w))-1 {
			return MustForWord(w), nil
		}
	}
	return nil, fmt.Errorf("gf: %d columns exceed GF(2^32) capacity", columns)
}

// checkRegions validates a region-op argument pair.
func checkRegions(dst, src []byte, wordBytes int) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf: region length mismatch: dst=%d src=%d", len(dst), len(src)))
	}
	if len(dst)%wordBytes != 0 {
		panic(fmt.Sprintf("gf: region length %d is not a multiple of the %d-byte word", len(dst), wordBytes))
	}
}

// xorRegion is the shared a==1 fast path: dst ^= src, in
// crypto/subtle's vector loop (16-byte SSE2 on amd64, NEON on arm64).
// dst and src are equal or disjoint; XORBytes panics on a partial
// overlap.
func xorRegion(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}

// copyRegion is the MulRegion a==1 fast path.
func copyRegion(dst, src []byte) {
	copy(dst, src)
}

// zeroRegion clears dst (MulRegion with a == 0).
func zeroRegion(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}
