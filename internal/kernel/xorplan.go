package kernel

import (
	"os"
	"sync/atomic"

	"ppm/internal/gf"
	"ppm/internal/xorplan"
)

// XorplanMode selects whether Compile attaches a compiled XOR program
// (internal/xorplan) to back the matrix-application paths. The XOR
// backend is byte-identical with the table and affine kernels; it
// exists to beat the portable table path when the GFNI affine kernels
// are unavailable, so Auto turns it on exactly then.
type XorplanMode int32

const (
	// XorplanAuto: on iff the GFNI affine kernels are off.
	XorplanAuto XorplanMode = iota
	// XorplanOn forces the XOR backend regardless of GFNI.
	XorplanOn
	// XorplanOff disables it; the row kernels serve every apply.
	XorplanOff
)

var xorplanMode atomic.Int32

// PPM_FORCE_XORPLAN=1 forces the XOR-program backend — the env-var
// mirror of SetXorplanMode(XorplanOn), used by the CI matrix legs and
// differential harnesses. PPM_FORCE_XORPLAN=0 forces it off.
func init() {
	switch os.Getenv("PPM_FORCE_XORPLAN") {
	case "1":
		xorplanMode.Store(int32(XorplanOn))
	case "0":
		xorplanMode.Store(int32(XorplanOff))
	}
}

// SetXorplanMode sets the backend-selection mode and returns the
// previous one (restore idiom:
// defer kernel.SetXorplanMode(kernel.SetXorplanMode(kernel.XorplanOn))).
// Affects matrices compiled afterwards; already-compiled matrices keep
// the backend they were compiled with.
func SetXorplanMode(m XorplanMode) (prev XorplanMode) {
	prev = XorplanMode(xorplanMode.Load())
	xorplanMode.Store(int32(m))
	return prev
}

// XorplanActive reports whether a matrix compiled right now would
// carry an XOR program.
func XorplanActive() bool {
	switch XorplanMode(xorplanMode.Load()) {
	case XorplanOn:
		return true
	case XorplanOff:
		return false
	}
	return !gf.AffineKernels()
}

// XORProgram returns the compiled XOR program backing this matrix's
// overwrite rows (every row, unless the matrix was compiled with
// CompileAccumulating), or nil when the row kernels serve it.
// Inspection seam for tests and planverify.
func (cm *CompiledMatrix) XORProgram() *xorplan.Program { return cm.prog }

// AccumulateXORProgram returns the compiled XOR program of the
// trailing rows that accumulate (CompileAccumulating), or nil when
// there are none or the row kernels serve the matrix.
func (cm *CompiledMatrix) AccumulateXORProgram() *xorplan.Program { return cm.accProg }
