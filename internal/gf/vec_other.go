//go:build !amd64

package gf

// No vector-XOR kernels off amd64: the portable 64-bit sweeps are the
// only backend.
const vectorISA = VecNone

// No 512-bit carry-less multiply off amd64.
const vectorCLMUL = false
