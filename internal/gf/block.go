package gf

import (
	"fmt"
	"unsafe"
)

//go:generate go run gen_block.go

// Row-block dot-product kernels: apply several coefficient rows in one
// pass over each source.
//
// A fused row kernel (fused.go) reads dst once per row, but every row
// still streams all of its sources: applying an R-row matrix costs R
// sweeps of every source it touches. At w=16/32 each sweep also
// re-planarizes every source vector. A RowBlock holds up to BlockRows
// rows that share one column support and runs them together, one
// 64-byte chunk at a time: it loads (and at w=16/32 planarizes) each
// source vector once, updates all R row accumulators from it in
// registers, and un-planarizes and stores each accumulator once. Sources
// go through in batches of blockBatch, so a block over more columns
// reads and writes its R destination chunks once per batch.
//
// The per-(row, column) affine matrices are laid out contiguously at
// compile time, column-major: column k's block of R row matrices is
// one contiguous run, so the kernel reads one matrix pointer per source
// and addresses the rows at fixed offsets. Coefficient 1 is the identity
// matrix and runs through the same kernel; a zero coefficient inside the
// shared support is the zero matrix.
//
// The assembly (block_amd64.s, written by gen_block.go) covers the
// 64-byte-aligned prefix of the regions. The table-driven row kernels
// handle the tail, and the whole region when the affine kernels are off
// (no GFNI, PPM_NO_GFNI=1 or SetAffineKernels(false)). The choice is
// made on every call, never at compile time.

// BlockRows is the most rows one RowBlock applies together. Every row
// needs an accumulator register for the whole source batch; four leaves
// the w=32 kernel (four source planes, two products, two permutations)
// well inside the 32 vector registers, while the matrices of a full
// batch (blockBatch × BlockRows × 256 bytes at w=32) stay in a 48 KiB L1.
const BlockRows = 4

// blockBatch is the number of sources one kernel call streams before the
// row accumulators are folded into dst. Wider batches save destination
// traffic but push the batch's matrices (and more concurrent source
// streams) out of L1: 64-source batches measured slower than 16.
const blockBatch = 16

// blockArgs is the argument block the assembly kernels read (field
// offsets come from go_asm.h). It lives on the caller's stack: the
// kernels are //go:noescape, so it never reaches the heap.
type blockArgs struct {
	dst [BlockRows]*byte
	src [blockBatch]*byte
	mat [blockBatch]*uint64
}

// affineQwords is the number of matrix qwords per (row, column) term at
// word size w: one broadcast qword at w=8, one 8-qword matrix vector per
// plane rotation at w=16/32.
func affineQwords(w int) int {
	if w == 8 {
		return 1
	}
	return 8 * (w / 8)
}

// Identity matrices: coefficient-1 terms of the 1-row kernels point here.
var (
	ident8  = affineMat8(GF8, 1)
	ident16 = affineMats16(GF16, 1)
	ident32 = affineMats32(GF32, 1)
)

// RowBlock is up to BlockRows coefficient rows compiled for the
// row-block kernel over the union of their column supports. It is
// immutable and safe for concurrent use.
type RowBlock struct {
	w     int
	rows  []int      // output regions, indices into Apply's out
	cols  []int      // source regions, indices into Apply's in
	mats  []*uint64  // per column: its rows' matrices, contiguous
	kerns []tableRow // per row: the table path over the same terms
	terms int
}

// CompileBlock lowers rows[r] = consts[r] (each a full matrix row) into
// one RowBlock. len(rows) must be in [1, BlockRows], and every consts[r]
// must have the same length. The block's support is the union of the
// rows' nonzero columns; the kernel (internal/kernel) groups rows with
// identical support, so a union adds no zero terms there.
func CompileBlock(f Field, rows []int, consts [][]uint32) *RowBlock {
	if len(rows) == 0 || len(rows) > BlockRows || len(rows) != len(consts) {
		panic(fmt.Sprintf("gf: block of %d rows with %d coefficient rows (max %d)", len(rows), len(consts), BlockRows))
	}
	b := &RowBlock{rows: append([]int(nil), rows...), kerns: make([]tableRow, len(rows))}
	mask := uint32(f.Order() - 1)
	for r, row := range consts {
		if len(row) != len(consts[0]) {
			panic(fmt.Sprintf("gf: block rows of %d and %d columns", len(consts[0]), len(row)))
		}
		b.kerns[r] = compileTableRow(f, row)
	}
	for j := range consts[0] {
		in := false
		for _, row := range consts {
			if row[j]&mask != 0 {
				b.terms++
				in = true
			}
		}
		if in {
			b.cols = append(b.cols, j)
		}
	}
	switch f.(type) {
	case *field8, *field16, field32:
		b.w = f.W()
	default:
		return b // unknown Field implementation: table path only
	}
	qw := affineQwords(b.w)
	per := len(rows) * qw
	backing := alignedQwords(len(b.cols) * per)
	b.mats = make([]*uint64, len(b.cols))
	for k, j := range b.cols {
		b.mats[k] = &backing[k*per]
		for r, row := range consts {
			if m := affineMatrix(f, row[j]); m != nil {
				copy(backing[k*per+r*qw:k*per+(r+1)*qw], unsafe.Slice(m, qw))
			}
		}
	}
	return b
}

// affineMatrix returns the matrices of multiplication by a (nil for 0):
// the memoized multiplier's for a > 1, the identity for 1.
func affineMatrix(f Field, a uint32) *uint64 {
	switch ff := f.(type) {
	case *field8:
		switch a &= 0xFF; a {
		case 0:
			return nil
		case 1:
			return &ident8
		}
		return &ff.muls[a].aff
	case *field16:
		switch a &= 0xFFFF; a {
		case 0:
			return nil
		case 1:
			return &ident16[0][0]
		}
		return &ff.multiplier(a).aff[0][0]
	case field32:
		switch a {
		case 0:
			return nil
		case 1:
			return &ident32[0][0]
		}
		return &ff.multiplier(a).aff[0][0]
	}
	return nil
}

// alignedQwords returns n zeroed qwords starting on a 64-byte boundary,
// so no matrix vector of the kernel straddles two cache lines.
func alignedQwords(n int) []uint64 {
	buf := make([]uint64, n+7)
	off := int((64 - uintptr(unsafe.Pointer(&buf[0]))%64) % 64 / 8)
	return buf[off : off+n : off+n]
}

// Rows returns the output region indices the block writes, in order.
func (b *RowBlock) Rows() []int { return b.rows }

// Cols returns the block's column support in ascending order.
func (b *RowBlock) Cols() []int { return b.cols }

// Terms returns the block's nonzero coefficient count: its mult_XORs
// cost per application.
func (b *RowBlock) Terms() int { return b.terms }

// Apply computes out[rows[r]] = Σ_k M[r][cols[k]] * in[cols[k]] for
// every row of the block when overwrite is set, and XORs the sum into
// out[rows[r]] otherwise. Every region the block touches must have the
// same length, a multiple of the word size, and no output may alias a
// source.
//
//ppm:hotpath
func (b *RowBlock) Apply(out, in [][]byte, overwrite bool) {
	n := len(out[b.rows[0]])
	b.check(out, in, n)
	lo := 0
	if useAffine && b.w != 0 && n >= 64 && len(b.cols) > 0 {
		lo = n &^ 63
		var a blockArgs
		for r, i := range b.rows {
			a.dst[r] = &out[i][0]
		}
		runBlock(b.w, &a, len(b.rows), in, b.cols, b.mats, lo, !overwrite)
	}
	if lo == n {
		return
	}
	for r, i := range b.rows {
		if overwrite {
			zeroRegion(out[i][lo:])
		}
		b.kerns[r].tableXOR(out[i], in, lo)
	}
}

// check validates region lengths against the block's rows and columns.
func (b *RowBlock) check(out, in [][]byte, n int) {
	wb := 1
	if b.w != 0 {
		wb = b.w / 8
	}
	if n%wb != 0 {
		panic(fmt.Sprintf("gf: region length %d is not a multiple of the %d-byte word", n, wb))
	}
	for _, i := range b.rows {
		if len(out[i]) != n {
			panic(fmt.Sprintf("gf: block output lengths %d and %d differ", n, len(out[i])))
		}
	}
	for _, j := range b.cols {
		if len(in[j]) != n {
			panic(fmt.Sprintf("gf: block source length %d, outputs %d", len(in[j]), n))
		}
	}
}

// runBlock streams the sources srcs[cols[k]] through the kernel of width
// w in batches of blockBatch, over the first n bytes (n a positive
// multiple of 64) of the rows a.dst[:rows]. acc selects accumulate mode
// for the first batch; later batches always accumulate.
//
//ppm:hotpath
func runBlock(w int, a *blockArgs, rows int, srcs [][]byte, cols []int, mats []*uint64, n int, acc bool) {
	for k0 := 0; k0 < len(cols); k0 += blockBatch {
		nb := len(cols) - k0
		if nb > blockBatch {
			nb = blockBatch
		}
		for k := 0; k < nb; k++ {
			a.src[k] = &srcs[cols[k0+k]][0]
			a.mat[k] = mats[k0+k]
		}
		blockKernel(w, a, nb, rows, n, acc)
		acc = true
	}
}

// blockKernel dispatches one kernel call to the assembly of width w.
//
//ppm:hotpath
func blockKernel(w int, a *blockArgs, nsrc, rows, n int, acc bool) {
	switch w {
	case 8:
		gf8BlockAsm(a, nsrc, rows, n, acc)
	case 16:
		gf16BlockAsm(a, nsrc, rows, n, acc)
	case 32:
		gf32BlockAsm(a, nsrc, rows, n, acc)
	}
}

// affineOne is the single-term case: dst[:n] ^= M * src[:n], n a
// positive multiple of 64.
//
//ppm:hotpath
func affineOne(w int, dst, src []byte, mat *uint64, n int) {
	var a blockArgs
	a.dst[0], a.src[0], a.mat[0] = &dst[0], &src[0], mat
	blockKernel(w, &a, 1, 1, n, true)
}

// AffineImage evaluates the stored matrices of the term (row r, column
// Cols()[k]) the way the kernel does, on a 64-byte chunk holding the
// word x at every word position, and returns the product word at each
// position. For a correct block each equals M[r][col] * x. The table
// path (and unknown fields) has no matrices: the result is nil.
func (b *RowBlock) AffineImage(r, k int, x uint32) []uint32 {
	if b.w == 0 {
		return nil
	}
	qw := affineQwords(b.w)
	m := unsafe.Slice(b.mats[k], len(b.rows)*qw)[r*qw : (r+1)*qw]
	return affineEval(b.w/8, m, x)
}

// affineEval is a scalar model of one kernel step: planarize a chunk of
// words x, apply matrix vector s to plane rotation s with each byte
// transformed by the matrix of its own qword lane, sum, and
// un-planarize. At w=8 the single qword is broadcast.
func affineEval(wb int, m []uint64, x uint32) []uint32 {
	plane := 64 / wb
	var in, out [64]byte
	for p := 0; p < plane; p++ {
		for j := 0; j < wb; j++ {
			in[plane*j+p] = byte(x >> uint(8*j))
		}
	}
	for s := 0; s < wb; s++ {
		for i := range out {
			q := m[0]
			if wb > 1 {
				q = m[8*s+i/8]
			}
			src := in[(i+plane*s)%64]
			out[i] ^= affineByte(q, src)
		}
	}
	words := make([]uint32, plane)
	for p := range words {
		for j := 0; j < wb; j++ {
			words[p] |= uint32(out[plane*j+p]) << uint(8*j)
		}
	}
	return words
}

// affineByte evaluates one GF2P8AFFINEQB matrix qword on a byte: output
// bit t is the parity of matrix byte 7-t ANDed with the input.
func affineByte(q uint64, v byte) byte {
	var out byte
	for t := 0; t < 8; t++ {
		row := byte(q>>uint(8*(7-t))) & v
		row ^= row >> 4
		row ^= row >> 2
		row ^= row >> 1
		out |= (row & 1) << uint(t)
	}
	return out
}
