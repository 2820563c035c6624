package gf

import (
	"encoding/binary"
	"fmt"
)

// Multiplier is a constant bound to its lookup tables: repeated region
// operations with the same coefficient skip the per-call table build
// that MultXORs pays (512 scalar multiplies at w=16, 1024 at w=32).
// The kernel compiles decode plans into multipliers so that repeated
// decodes — and even a single decode whose matrix repeats coefficients,
// like SD's all-ones rows — amortise table construction.
//
// MultiplierFor is memoized per field (eagerly for GF(2^8), in bounded
// per-constant caches for GF(2^16) and GF(2^32)), so calling it in a
// hot path costs a cache lookup, not a table build or an allocation.
//
// A Multiplier is immutable and safe for concurrent use.
type Multiplier interface {
	// Coefficient returns the bound constant.
	Coefficient() uint32
	// MultXOR computes dst[i] ^= a * src[i] over w-bit words, exactly
	// like Field.MultXORs with the bound constant. dst and src must not
	// partially overlap: the coefficient-1 multiplier panics there.
	MultXOR(dst, src []byte)
}

// Shared a <= 1 multipliers, one per word size, so the trivial cases
// never allocate an interface box.
var trivialMults = [3][2]Multiplier{
	{trivialMultiplier{a: 0, wb: 1}, trivialMultiplier{a: 1, wb: 1}},
	{trivialMultiplier{a: 0, wb: 2}, trivialMultiplier{a: 1, wb: 2}},
	{trivialMultiplier{a: 0, wb: 4}, trivialMultiplier{a: 1, wb: 4}},
}

// MultiplierFor returns a Multiplier bound to the constant a in the
// given field. Equal (field, constant) pairs share one multiplier
// while the per-field memo has capacity, so pointer comparison can be
// used to confirm sharing in tests. f must be one of this package's
// fields; any other Field implementation panics.
func MultiplierFor(f Field, a uint32) Multiplier {
	switch ff := f.(type) {
	case *field8:
		a &= 0xFF
		if a <= 1 {
			return trivialMults[0][a]
		}
		return &ff.muls[a]
	case *field16:
		a &= 0xFFFF
		if a <= 1 {
			return trivialMults[1][a]
		}
		return ff.multiplier(a)
	case field32:
		if a <= 1 {
			return trivialMults[2][a]
		}
		return ff.multiplier(a)
	}
	panic(fmt.Sprintf("gf: unknown field %T", f))
}

// trivialMultiplier handles a == 0 (no-op) and a == 1 (plain XOR).
type trivialMultiplier struct {
	a  uint32
	wb int
}

func (m trivialMultiplier) Coefficient() uint32 { return m.a }

//ppm:hotpath
func (m trivialMultiplier) MultXOR(dst, src []byte) {
	checkRegions(dst, src, m.wb)
	if m.a == 0 {
		return
	}
	xorRegion(dst, src)
}

type multiplier8 struct {
	a   uint32
	row []uint8
	aff uint64
}

func (m *multiplier8) Coefficient() uint32 { return m.a }

//ppm:hotpath
func (m *multiplier8) MultXOR(dst, src []byte) {
	checkRegions(dst, src, 1)
	if n64 := affinePrefix(len(dst)); n64 > 0 {
		affineOne(8, dst, src, &m.aff, n64)
		if n64 == len(dst) {
			return
		}
		dst, src = dst[n64:], src[n64:]
	}
	row := m.row
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= row[src[i]]
	}
}

type multiplier16 struct {
	a   uint32
	t   *[2][256]uint16
	aff *[2][8]uint64
}

func (m *multiplier16) Coefficient() uint32 { return m.a }

//ppm:hotpath
func (m *multiplier16) MultXOR(dst, src []byte) {
	checkRegions(dst, src, 2)
	if n64 := affinePrefix(len(dst)); n64 > 0 {
		affineOne(16, dst, src, &m.aff[0][0], n64)
		if n64 == len(dst) {
			return
		}
		dst, src = dst[n64:], src[n64:]
	}
	t := m.t
	// Main loop: four 16-bit symbols per 64-bit load/store.
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		p := uint64(t[0][s&0xFF]^t[1][s>>8&0xFF]) |
			uint64(t[0][s>>16&0xFF]^t[1][s>>24&0xFF])<<16 |
			uint64(t[0][s>>32&0xFF]^t[1][s>>40&0xFF])<<32 |
			uint64(t[0][s>>48&0xFF]^t[1][s>>56])<<48
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i+2 <= len(dst); i += 2 {
		w := binary.LittleEndian.Uint16(src[i:])
		p := t[0][w&0xFF] ^ t[1][w>>8]
		binary.LittleEndian.PutUint16(dst[i:], binary.LittleEndian.Uint16(dst[i:])^p)
	}
}

type multiplier32 struct {
	a   uint32
	t   *[4][256]uint32
	aff *[4][8]uint64
}

func (m *multiplier32) Coefficient() uint32 { return m.a }

//ppm:hotpath
func (m *multiplier32) MultXOR(dst, src []byte) {
	checkRegions(dst, src, 4)
	if n64 := affinePrefix(len(dst)); n64 > 0 {
		affineOne(32, dst, src, &m.aff[0][0], n64)
		if n64 == len(dst) {
			return
		}
		dst, src = dst[n64:], src[n64:]
	}
	// Main loop: two 32-bit symbols per 64-bit load/store.
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		lo := m.t[0][s&0xFF] ^ m.t[1][s>>8&0xFF] ^ m.t[2][s>>16&0xFF] ^ m.t[3][s>>24&0xFF]
		hi := m.t[0][s>>32&0xFF] ^ m.t[1][s>>40&0xFF] ^ m.t[2][s>>48&0xFF] ^ m.t[3][s>>56]
		p := uint64(lo) | uint64(hi)<<32
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i+4 <= len(dst); i += 4 {
		w := binary.LittleEndian.Uint32(src[i:])
		p := m.t[0][w&0xFF] ^ m.t[1][(w>>8)&0xFF] ^ m.t[2][(w>>16)&0xFF] ^ m.t[3][w>>24]
		binary.LittleEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(dst[i:])^p)
	}
}

// affinePrefix is the length the affine kernels cover for a region of
// n bytes: the 64-byte-aligned prefix, or 0 when they are off.
func affinePrefix(n int) int {
	if !useAffine {
		return 0
	}
	return n &^ 63
}
