//go:build amd64

package fault

import "ppm/internal/gf"

// castagnoliCLMUL folds p into crc, the inverted running CRC-32C (the
// register hash/crc32's kernels take), with 512-bit VPCLMULQDQ;
// crc_amd64.s. len(p) must be at least clmulMin and a multiple of 16.
//
//go:noescape
func castagnoliCLMUL(crc uint32, p []byte) uint32

// useCLMUL selects the folding kernel: set once from gf's CPU probe,
// cleared by tests to reach the hash/crc32 path.
var useCLMUL = gf.VectorCLMUL()
