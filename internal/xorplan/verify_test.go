package xorplan_test

// The symbolic plan verifier imports xorplan, so the proof of the
// compile cache's programs lives in the external test package.

import (
	"math/rand"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
	"ppm/internal/planverify"
	"ppm/internal/xorplan"
)

// TestCompileCachedProgramsVerify compiles a spread of fresh matrices
// at every word size through the cache: each program must prove equal
// to its matrix.
func TestCompileCachedProgramsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{8, 16, 32} {
		f, err := gf.ForWord(w)
		if err != nil {
			t.Fatal(err)
		}
		mask := uint32(1)<<uint(w) - 1
		for trial := 0; trial < 4; trial++ {
			m := matrix.New(f, 2+rng.Intn(4), 2+rng.Intn(6))
			for i := 0; i < m.Rows(); i++ {
				for j := 0; j < m.Cols(); j++ {
					m.Set(i, j, rng.Uint32()&mask)
				}
			}
			prog, err := xorplan.CompileCached(f, m)
			if err != nil {
				t.Fatalf("w=%d: compile failed: %v", w, err)
			}
			if fs := planverify.VerifyProgram(f, m, prog); len(fs) != 0 {
				t.Fatalf("w=%d: cached program fails verification: %v", w, fs)
			}
		}
	}
}
