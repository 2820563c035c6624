//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// CRC-32C by carry-less-multiply folding, the method of Intel's "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ" that
// hash/crc32 runs for IEEE (ieeeCLMUL in crc32_amd64.s), widened to
// four 512-bit accumulators with VPCLMULQDQ. Each 128-bit lane holds a
// bit-reflected polynomial; folding it forward by D bits is two
// carry-less products with the lane's qwords, k(D+32) for the low and
// k(D-32) for the high, XORed into the data D bits on. crc.go holds the
// constants, and TestCRCConstants derives each one.

// Each fold constant is one 128-bit vector: low qword k(D+32), high
// qword k(D-32).
DATA crcFold2048<>+0(SB)/8, $const_crcFold2048Lo
DATA crcFold2048<>+8(SB)/8, $const_crcFold2048Hi
GLOBL crcFold2048<>(SB), RODATA, $16

DATA crcFold512<>+0(SB)/8, $const_crcFold512Lo
DATA crcFold512<>+8(SB)/8, $const_crcFold512Hi
GLOBL crcFold512<>(SB), RODATA, $16

DATA crcFold128<>+0(SB)/8, $const_crcFold128Lo
DATA crcFold128<>+8(SB)/8, $const_crcFold128Hi
GLOBL crcFold128<>(SB), RODATA, $16

DATA crcX64<>+0(SB)/8, $const_crcX64
GLOBL crcX64<>(SB), RODATA, $8

// Barrett reduction: low qword P′, high qword μ.
DATA crcBarrett<>+0(SB)/8, $const_crcPoly
DATA crcBarrett<>+8(SB)/8, $const_crcMu
GLOBL crcBarrett<>(SB), RODATA, $16

// func castagnoliCLMUL(crc uint32, p []byte) uint32
//
// len(p) must be at least 256 and a multiple of 16. crc and the result
// are the inverted running CRC.
TEXT ·castagnoliCLMUL(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX

	// Four accumulators cover the first 256 bytes; the CRC enters the
	// first.
	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VMOVD     AX, X0
	VPXORQ    Z0, Z1, Z1
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        fold4

	// Fold each accumulator 2048 bits (256 bytes) forward onto the next
	// 256 bytes.
	VBROADCASTI32X4 crcFold2048<>(SB), Z0

loop256:
	VPCLMULQDQ $0x00, Z0, Z1, Z5
	VPCLMULQDQ $0x11, Z0, Z1, Z1
	VPTERNLOGD $0x96, (SI), Z5, Z1
	VPCLMULQDQ $0x00, Z0, Z2, Z6
	VPCLMULQDQ $0x11, Z0, Z2, Z2
	VPTERNLOGD $0x96, 64(SI), Z6, Z2
	VPCLMULQDQ $0x00, Z0, Z3, Z7
	VPCLMULQDQ $0x11, Z0, Z3, Z3
	VPTERNLOGD $0x96, 128(SI), Z7, Z3
	VPCLMULQDQ $0x00, Z0, Z4, Z8
	VPCLMULQDQ $0x11, Z0, Z4, Z4
	VPTERNLOGD $0x96, 192(SI), Z8, Z4
	ADDQ       $256, SI
	SUBQ       $256, CX
	CMPQ       CX, $256
	JAE        loop256

	// Reduce the four accumulators to Z1 by 512-bit folds.
fold4:
	VBROADCASTI32X4 crcFold512<>(SB), Z0
	VPCLMULQDQ      $0x00, Z0, Z1, Z5
	VPCLMULQDQ      $0x11, Z0, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z2, Z1
	VPCLMULQDQ      $0x00, Z0, Z1, Z5
	VPCLMULQDQ      $0x11, Z0, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z3, Z1
	VPCLMULQDQ      $0x00, Z0, Z1, Z5
	VPCLMULQDQ      $0x11, Z0, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z4, Z1
	CMPQ            CX, $64
	JB              lanes

	// Fold Z1 onto each remaining whole 64 bytes.
loop64:
	VPCLMULQDQ $0x00, Z0, Z1, Z5
	VPCLMULQDQ $0x11, Z0, Z1, Z1
	VPTERNLOGD $0x96, (SI), Z5, Z1
	ADDQ       $64, SI
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        loop64

	// Z1's four lanes go to X1..X4, earliest first, and the rest is
	// ieeeCLMUL's 128-bit SSE code with the Castagnoli constants.
lanes:
	VEXTRACTI32X4 $1, Z1, X2
	VEXTRACTI32X4 $2, Z1, X3
	VEXTRACTI32X4 $3, Z1, X4
	VZEROUPPER

	MOVOU     crcFold128<>(SB), X0
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	CMPQ CX, $16
	JB   finish

	// Fold onto each remaining 16 bytes.
loop16:
	MOVOU     (SI), X2
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       loop16

	// 128 bits to 64 (k(96)), 64 to 32 (k(64)), then Barrett.
finish:
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1

	MOVOA X1, X2
	MOVQ  crcX64<>(SB), X0

	// X3 is the low-32-bit mask of each qword.
	PSRLQ     $32, X3
	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	MOVOU     crcBarrett<>(SB), X0
	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	PEXTRD $1, X1, AX
	MOVL   AX, ret+32(FP)
	RET
