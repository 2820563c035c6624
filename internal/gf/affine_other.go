//go:build !amd64

package gf

// No affine kernels off amd64: useAffine can never be switched on, so
// the stubs below are unreachable.
const affineSupported = false

var useAffine = false

func gf8BlockAsm(a *blockArgs, nsrc, rows, n int, acc bool)  { panic("gf: no affine kernel") }
func gf16BlockAsm(a *blockArgs, nsrc, rows, n int, acc bool) { panic("gf: no affine kernel") }
func gf32BlockAsm(a *blockArgs, nsrc, rows, n int, acc bool) { panic("gf: no affine kernel") }
