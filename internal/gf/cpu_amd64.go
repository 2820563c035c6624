//go:build amd64

package gf

import "os"

// affineSupported reports hardware support for the GF2P8AFFINEQB
// region kernels: GFNI plus the AVX-512 subsets they use (F for the
// 512-bit forms, BW/VBMI for VPERMB) and an OS that saves the full
// ZMM + opmask state.
var affineSupported = detectAffine()

// useAffine gates the affine kernels at run time. PPM_NO_GFNI=1 forces
// the portable table kernels, which is how the differential tests
// exercise both paths on capable hardware.
var useAffine = affineSupported && os.Getenv("PPM_NO_GFNI") == ""

// vectorISA is the widest vector-XOR ISA the CPU and OS support; see
// vec.go for the levels and VectorISALevel for the public accessor.
var vectorISA = detectVectorISA()

// vectorCLMUL reports 512-bit carry-less multiply support; see
// VectorCLMUL.
var vectorCLMUL = detectVectorCLMUL()

// cpuidex and xgetbv0 are implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// CPUID leaf 7 feature bits (EBX, then ECX) the kernels dispatch on.
const (
	cpuAVX2       = 1 << 5
	cpuAVX512F    = 1 << 16
	cpuAVX512BW   = 1 << 30
	cpuAVX512VBMI = 1 << 1
	cpuGFNI       = 1 << 8
	cpuVPCLMULQDQ = 1 << 10
)

// xcr0ZMM is the XCR0 state every 512-bit kernel needs OS-enabled: SSE
// (1), AVX (2), opmask (5), ZMM0-15 high halves (6) and ZMM16-31 (7).
const xcr0ZMM = 0xE6

// cpuLeaf7 is the one probe behind every detect function: CPUID leaf
// 7's EBX and ECX feature words and XCR0. ok is false when the CPU has
// no leaf 7 or the OS does not use XSAVE, so XGETBV is unavailable.
func cpuLeaf7() (ebx, ecx, xcr0 uint32, ok bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return 0, 0, 0, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	if c1&(1<<27) == 0 { // OSXSAVE: XGETBV available and OS uses XSAVE
		return 0, 0, 0, false
	}
	_, ebx, ecx, _ = cpuidex(7, 0)
	xcr0, _ = xgetbv0()
	return ebx, ecx, xcr0, true
}

// detectVectorISA probes for the plain vector-XOR levels: AVX-512
// (F + BW, full ZMM/opmask state OS-saved) or AVX2 (YMM state
// OS-saved). Unlike detectAffine it requires no GFNI or VBMI — VPXOR
// predates them by a decade of hardware.
func detectVectorISA() int {
	ebx, _, xcr0, ok := cpuLeaf7()
	switch {
	case !ok:
		return VecNone
	case ebx&cpuAVX512F != 0 && ebx&cpuAVX512BW != 0 && xcr0&xcr0ZMM == xcr0ZMM:
		return VecAVX512
	case ebx&cpuAVX2 != 0 && xcr0&0x6 == 0x6: // SSE and AVX state, for YMM
		return VecAVX2
	}
	return VecNone
}

// detectVectorCLMUL probes for 512-bit VPCLMULQDQ: AVX-512F, the
// VPCLMULQDQ extension and OS-saved ZMM + opmask state.
func detectVectorCLMUL() bool {
	ebx, ecx, xcr0, ok := cpuLeaf7()
	return ok && ebx&cpuAVX512F != 0 && ecx&cpuVPCLMULQDQ != 0 && xcr0&xcr0ZMM == xcr0ZMM
}

// detectAffine probes for the GF2P8AFFINEQB kernels: AVX-512 F and BW,
// VBMI (VPERMB), GFNI and OS-saved ZMM + opmask state.
func detectAffine() bool {
	ebx, ecx, xcr0, ok := cpuLeaf7()
	return ok && ebx&cpuAVX512F != 0 && ebx&cpuAVX512BW != 0 &&
		ecx&cpuAVX512VBMI != 0 && ecx&cpuGFNI != 0 && xcr0&xcr0ZMM == xcr0ZMM
}
