package fault

import "hash/crc32"

// castagnoli is the CRC-32C table (the polynomial storage systems use;
// SSE4.2 hosts compute it in hardware via the stdlib).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumSector returns the CRC-32C of one sector. On hosts with
// AVX-512 VPCLMULQDQ (gf.VectorCLMUL) a carry-less-multiply folding
// kernel checksums the 16-byte-rounded prefix of a sector of clmulMin
// bytes or more, and hash/crc32 finishes the tail; elsewhere hash/crc32
// does it all. Both give the same value.
func ChecksumSector(b []byte) uint32 {
	var crc uint32
	if useCLMUL && len(b) >= clmulMin {
		n := len(b) &^ 15
		crc = ^castagnoliCLMUL(^crc, b[:n])
		b = b[n:]
	}
	return crc32.Update(crc, castagnoli, b)
}

// clmulMin is the shortest input the folding kernel takes: it starts
// with four 64-byte accumulators.
const clmulMin = 256

// The folding kernel's constants (crc_amd64.s reads them through
// go_asm.h). They live in PCLMULQDQ's bit-reflected domain, where
// k(d) = reflect32(x^d mod P) << 1 with P = 0x11EDC6F41, the
// Castagnoli polynomial. Folding a 128-bit lane forward by D bits
// multiplies its low qword by k(D+32) and its high qword by k(D-32).
// TestCRCConstants derives each one from P, and reproduces hash/crc32's
// IEEE constants from the IEEE polynomial by the same rule.
const (
	crcFold2048Lo = 0xdcb17aa4  // k(2080): the 256-byte loop
	crcFold2048Hi = 0xb9e02b86  // k(2016)
	crcFold512Lo  = 0x740eef02  // k(544): zmm to zmm, and the 64-byte loop
	crcFold512Hi  = 0x9e4addf8  // k(480)
	crcFold128Lo  = 0xf20c0dfe  // k(160): lane to lane, and the 16-byte loop
	crcFold128Hi  = 0x14cd00bd6 // k(96)
	crcX64        = 0xdd45aab8  // k(64): 64 bits down to 32
	crcPoly       = 0x105ec76f1 // P′: P bit-reflected over 33 bits
	crcMu         = 0xdea713f1  // μ: x^64 div P, bit-reflected over 33 bits
)
