//go:build !amd64

package fault

import "hash/crc32"

// useCLMUL is never set off amd64: ChecksumSector is hash/crc32's.
var useCLMUL = false

// castagnoliCLMUL stands in for the amd64 kernel with hash/crc32.
func castagnoliCLMUL(crc uint32, p []byte) uint32 { return ^crc32.Update(^crc, castagnoli, p) }
