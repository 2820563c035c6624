//go:build amd64

package gf

// Row-block kernels (block_amd64.s, generated by gen_block.go). rows is
// in [1, BlockRows], nsrc in [1, blockBatch], and n is positive and a
// multiple of 64; callers peel the sub-64-byte tail onto the portable
// kernels. Bit r of acc set adds row r's sum to its destination, clear
// stores it.

//go:noescape
func gf8BlockAsm(a *blockArgs, nsrc, rows, n int, acc uint)

//go:noescape
func gf16BlockAsm(a *blockArgs, nsrc, rows, n int, acc uint)

//go:noescape
func gf32BlockAsm(a *blockArgs, nsrc, rows, n int, acc uint)
