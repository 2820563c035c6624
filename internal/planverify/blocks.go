package planverify

import (
	"fmt"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

const objRowBlocks = "row-blocks"

// VerifyBlocks proves the row-block lowering of a compiled matrix equal
// to m:
//
//   - structure: every row of m is written by exactly one block (an
//     overwrite-mode apply would otherwise clobber or skip it), and
//     every nonzero M[i][j] lies in the support of row i's block;
//   - symbolic: each stored affine matrix, evaluated the way the kernel
//     evaluates it (gf.RowBlock.AffineImage), maps every basis word x^b
//     to M[i][j]·x^b at every word position of a chunk. The kernel's
//     per-term map is GF(2)-linear, so agreement on the w basis words
//     is agreement on every word; a zero inside the shared support must
//     map to zero;
//   - stats: the blocks' term counts add up to NNZ(m), the mult_XORs
//     the compiled apply accounts.
//
// OpIndex is the block index.
func VerifyBlocks(f gf.Field, m *matrix.Matrix, cm *kernel.CompiledMatrix) []Finding {
	var fs []Finding
	add := func(pass string, op int, format string, args ...interface{}) {
		fs = append(fs, Finding{Object: objRowBlocks, Pass: pass, OpIndex: op, Message: fmt.Sprintf(format, args...)})
	}
	owner := make([]int, m.Rows())
	for i := range owner {
		owner[i] = -1
	}
	terms := 0
	for bi, b := range cm.Blocks() {
		terms += b.Terms()
		if n := len(b.Rows()); n == 0 || n > gf.BlockRows {
			add("structure", bi, "block has %d rows, want 1..%d", n, gf.BlockRows)
		}
		for _, i := range b.Rows() {
			if i < 0 || i >= m.Rows() {
				add("bounds", bi, "row %d outside the %d-row matrix", i, m.Rows())
				return fs
			}
			if owner[i] >= 0 {
				add("structure", bi, "row %d already written by block %d", i, owner[i])
			}
			owner[i] = bi
		}
		inSupport := make(map[int]bool, len(b.Cols()))
		for _, j := range b.Cols() {
			if j < 0 || j >= m.Cols() {
				add("bounds", bi, "column %d outside the %d-column matrix", j, m.Cols())
				return fs
			}
			inSupport[j] = true
		}
		for r, i := range b.Rows() {
			for j := 0; j < m.Cols(); j++ {
				if m.At(i, j) != 0 && !inSupport[j] {
					add("structure", bi, "nonzero M[%d][%d] outside the block's support", i, j)
				}
			}
			for k, j := range b.Cols() {
				if msg := checkTermMatrix(f, b, r, k, m.At(i, j)); msg != "" {
					add("symbolic", bi, "M[%d][%d] = %#x: %s", i, j, m.At(i, j), msg)
				}
			}
		}
	}
	for i, bi := range owner {
		if bi < 0 {
			add("structure", -1, "row %d is in no block", i)
		}
	}
	if terms != m.NNZ() || terms != cm.NNZ() {
		add("stats", -1, "blocks hold %d terms; the matrix has %d nonzeros and the compiled apply accounts %d", terms, m.NNZ(), cm.NNZ())
	}
	return fs
}

// checkTermMatrix evaluates one stored term on the field's basis words
// and describes the first mismatch ("" when the matrices are exact).
// Blocks of a Field implementation without matrices (AffineImage nil)
// run on the table path only and have nothing to check.
func checkTermMatrix(f gf.Field, b *gf.RowBlock, r, k int, coef uint32) string {
	for bit := 0; bit < f.W(); bit++ {
		x := uint32(1) << uint(bit)
		want := f.Mul(coef, x)
		for p, got := range b.AffineImage(r, k, x) {
			if got != want {
				return fmt.Sprintf("stored matrix maps %#x to %#x at word %d, want %#x", x, got, p, want)
			}
		}
	}
	return ""
}
