package gf

// Vector-XOR ISA levels, as detected at process start. The xorplan
// backend's fused XOR kernels dispatch on this: plain 64-bit word XOR,
// 256-bit VPXOR, or 512-bit VPXORQ sweeps. Detection lives here so
// xorplan shares the one CPUID/XGETBV probe with the affine kernels
// instead of growing a second copy of the assembly.
const (
	// VecNone means no usable vector XOR: portable 64-bit word sweeps.
	VecNone = 0
	// VecAVX2 means 256-bit VPXOR with OS-saved YMM state.
	VecAVX2 = 1
	// VecAVX512 means 512-bit VPXORQ with OS-saved ZMM state.
	VecAVX512 = 2
)

// VectorISALevel reports the widest vector-XOR ISA the CPU and OS
// support: VecAVX512, VecAVX2 or VecNone. It reflects hardware only;
// run-time opt-outs (PPM_NO_VEC) are the consumer's business.
func VectorISALevel() int { return vectorISA }

// VectorCLMUL reports whether the CPU and OS support 512-bit carry-less
// multiplication: AVX-512F, VPCLMULQDQ and OS-saved ZMM state. The
// CRC-32C folding kernel of internal/fault dispatches on it, so the
// whole module reads one CPUID/XGETBV probe.
func VectorCLMUL() bool { return vectorCLMUL }
