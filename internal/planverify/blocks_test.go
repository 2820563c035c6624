package planverify

import (
	"math/rand"
	"strings"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// sparseMatrix draws a rows x cols matrix where about a third of the
// entries are zero and a third are one.
func sparseMatrix(rng *rand.Rand, f gf.Field, rows, cols int) *matrix.Matrix {
	m := matrix.New(f, rows, cols)
	mask := uint32(f.Order() - 1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch rng.Intn(3) {
			case 0:
			case 1:
				m.Set(i, j, 1)
			default:
				m.Set(i, j, rng.Uint32()&mask|2)
			}
		}
	}
	return m
}

// TestVerifyBlocksProvesCompiled: Compile's row blocks prove clean for
// every field, and against a matrix that differs from the compiled one
// the verifier reports the pass that catches each difference.
func TestVerifyBlocksProvesCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		m := sparseMatrix(rng, f, 7, 11)
		m.Set(6, 0, 0)
		cm := kernel.Compile(f, m)
		if fs := VerifyBlocks(f, m, cm); len(fs) != 0 {
			t.Fatalf("GF%d: compiled blocks do not prove: %v", f.W(), fs[0])
		}

		cases := []struct {
			pass string
			edit func(m *matrix.Matrix)
		}{
			{"symbolic", func(m *matrix.Matrix) {
				for j := 0; j < m.Cols(); j++ {
					if a := m.At(2, j); a != 0 {
						m.Set(2, j, f.Mul(a, 3))
						return
					}
				}
			}},
			{"structure", func(m *matrix.Matrix) { m.Set(6, 0, 5) }},
		}
		for _, c := range cases {
			other := m.Clone()
			c.edit(other)
			fs := VerifyBlocks(f, other, cm)
			found := false
			for _, fd := range fs {
				found = found || fd.Pass == c.pass
			}
			if !found {
				t.Fatalf("GF%d: a %s difference went unreported: %v", f.W(), c.pass, fs)
			}
		}
		if fs := VerifyBlocks(f, m.SelectRows([]int{0, 1, 2, 3, 4}), cm); len(fs) == 0 || !strings.Contains(fs[0].Message, "outside") {
			t.Fatalf("GF%d: blocks over rows the matrix lacks: %v", f.W(), fs)
		}
	}
}
