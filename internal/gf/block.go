package gf

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

//go:generate go run gen_block.go

// Row-block dot-product kernels: apply several coefficient rows in one
// pass over each source.
//
// Applying an R-row matrix one row at a time costs R sweeps of every
// source it touches, and at w=16/32 each sweep also re-planarizes every
// source vector. A RowBlock holds up to BlockRows
// rows that share one column support and runs them together, one
// 64-byte chunk at a time: it loads (and at w=16/32 planarizes) each
// source vector once, updates all R row accumulators from it in
// registers, and un-planarizes and stores each accumulator once. Sources
// go through in batches of blockBatch, so a block over more columns
// reads and writes its R destination chunks once per batch.
//
// Every row carries a mode fixed at compile time: an overwrite row
// stores its sum over the destination, an accumulate row adds it in.
// Apply's overwrite flag selects the rows' own modes; without it every
// row accumulates. So one block can write some regions and add into
// others in a single pass over their shared sources, the way a folded
// group recovers its sectors and adds its syndrome rows (internal/core).
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
// (fused.go) handle the tail, and the whole region when the affine
// kernels are off (no GFNI, PPM_NO_GFNI=1 or SetAffineKernels(false)).
// The choice is made on every call, never at compile time, so the
// table rows are lowered on the first call that needs them: on a GFNI
// host a block whose regions are whole 64-byte chunks never builds
// them.

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
// offsets come from go_asm.h): the batch's destinations, sources and
// per-source matrices. The rows' modes travel beside it, as the
// kernel's accumulate mask. It lives on the caller's stack: the kernels
// are //go:noescape, so it never reaches the heap.
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
// row-block kernel over the union of their column supports, each row
// with its own overwrite or accumulate mode. It is immutable to its
// callers and safe for concurrent use.
type RowBlock struct {
	f      Field
	w      int
	rows   []int      // output regions, indices into Apply's out
	cols   []int      // source regions, indices into Apply's in
	consts [][]uint32 // per row: the caller's coefficient row
	mats   []uint64   // per column: its rows' matrices, contiguous
	terms  int
	acc    uint // bit r set: row r accumulates under an overwrite Apply

	// The table path over the same terms, one tableRow per row, built
	// from consts by the first Apply that runs it.
	tablesOnce sync.Once
	tables     []tableRow
}

// CompileBlock lowers consecutive groups of coefficient rows into row
// blocks, one block per group: block g writes the output regions
// rows[ends[g-1]:ends[g]] (ends[-1] = 0) from the full matrix rows
// consts[ends[g-1]:ends[g]]. A group holds 1 to BlockRows rows, every
// row has the same length, and ends must end at len(rows). Row i
// accumulates under an overwrite Apply when acc[i] is set; a nil acc
// makes every row overwrite. A block's
// support is the union of its rows' nonzero columns; the kernel
// (internal/kernel) groups rows with identical support, so a union adds
// no zero terms there. f must be one of this package's fields; any
// other Field implementation panics. The blocks share one allocation
// each for their headers, their column lists and their matrices, and
// they keep rows and consts (consts for their table path, which each
// lowers on first use), so the caller must not modify either
// afterwards.
func CompileBlock(f Field, rows []int, consts [][]uint32, ends []int, acc []bool) []*RowBlock {
	switch f.(type) {
	case *field8, *field16, field32:
	default:
		panic(fmt.Sprintf("gf: unknown field %T", f))
	}
	if len(rows) == 0 || len(rows) != len(consts) || len(ends) == 0 || ends[len(ends)-1] != len(rows) ||
		(acc != nil && len(acc) != len(rows)) {
		panic(fmt.Sprintf("gf: %d rows with %d coefficient rows and %d modes in blocks ending at %v",
			len(rows), len(consts), len(acc), ends))
	}
	mask := uint32(f.Order() - 1)
	width := len(consts[0])
	support := make([]uint64, (width+63)/64) // one block's support as a bitmap
	blocks := make([]RowBlock, len(ends))
	var cols []int                     // every block's support, block after block
	bounds := make([]int, len(ends)+1) // block g's support is cols[bounds[g]:bounds[g+1]]
	lo := 0
	for g, hi := range ends {
		if hi-lo < 1 || hi-lo > BlockRows {
			panic(fmt.Sprintf("gf: block of %d rows (max %d)", hi-lo, BlockRows))
		}
		b := &blocks[g]
		b.rows, b.consts = rows[lo:hi:hi], consts[lo:hi:hi]
		clear(support)
		terms := 0
		for _, row := range b.consts {
			if len(row) != width {
				panic(fmt.Sprintf("gf: block rows of %d and %d columns", width, len(row)))
			}
			for j, a := range row {
				if a&mask != 0 {
					support[j/64] |= 1 << uint(j%64)
					terms++
				}
			}
		}
		b.terms = terms
		for r := range b.rows {
			if acc != nil && acc[lo+r] {
				b.acc |= 1 << uint(r)
			}
		}
		for w, word := range support {
			for ; word != 0; word &= word - 1 {
				cols = append(cols, w*64+bits.TrailingZeros64(word))
			}
		}
		bounds[g+1] = len(cols)
		lo = hi
	}
	// Column k of a block holds its rows' matrices at mats[k*per:], per
	// = rows × qwords per term; at w = 16 and 32 that keeps every block
	// 64-byte aligned.
	qw := affineQwords(f.W())
	qwords := 0
	for g := range blocks {
		qwords += (bounds[g+1] - bounds[g]) * len(blocks[g].rows) * qw
	}
	mats := alignedQwords(qwords)
	out := make([]*RowBlock, len(blocks))
	for g := range blocks {
		b := &blocks[g]
		b.f, b.w = f, f.W()
		b.cols = cols[bounds[g]:bounds[g+1]:bounds[g+1]]
		per := len(b.rows) * qw
		b.mats, mats = mats[:len(b.cols)*per:len(b.cols)*per], mats[len(b.cols)*per:]
		for k, j := range b.cols {
			for r, row := range b.consts {
				m := affineMatrix(f, row[j])
				switch {
				case m == nil:
				case qw == 1:
					b.mats[k*per+r] = *m
				default:
					copy(b.mats[k*per+r*qw:k*per+(r+1)*qw], unsafe.Slice(m, qw))
				}
			}
		}
		out[g] = b
	}
	return out
}

// tableRows returns the block's table path, lowering it on first use.
// Concurrent first calls build it once; every caller sees the result.
func (b *RowBlock) tableRows() []tableRow {
	b.tablesOnce.Do(b.lowerTables)
	return b.tables
}

func (b *RowBlock) lowerTables() {
	tables := make([]tableRow, len(b.consts))
	for r, row := range b.consts {
		tables[r] = compileTableRow(b.f, row)
	}
	b.tables = tables
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

// Accumulates reports whether row r of the block (the output region
// Rows()[r]) adds its sum into its destination under an overwrite
// Apply, rather than storing it.
func (b *RowBlock) Accumulates(r int) bool { return b.acc>>uint(r)&1 == 1 }

// Apply computes S_r = Σ_k M[r][cols[k]] * in[cols[k]] for every row r
// of the block. When overwrite is set, each row applies its own mode:
// out[rows[r]] = S_r for an overwrite row, out[rows[r]] ^= S_r for an
// accumulate row. Otherwise every row accumulates. Every region the
// block touches must have the same length, a multiple of the word
// size, and no output may alias a source.
//
//ppm:hotpath
func (b *RowBlock) Apply(out, in [][]byte, overwrite bool) {
	n := len(out[b.rows[0]])
	b.check(out, in, n)
	acc := b.acc
	if !overwrite {
		acc = 1<<uint(len(b.rows)) - 1
	}
	lo := 0
	if useAffine && n >= 64 && len(b.cols) > 0 {
		lo = n &^ 63
		var a blockArgs
		for r, i := range b.rows {
			a.dst[r] = &out[i][0]
		}
		runBlock(b.w, &a, len(b.rows), in, b.cols, b.mats, lo, acc)
	}
	if lo == n {
		return
	}
	for r, t := range b.tableRows() {
		i := b.rows[r]
		if acc>>uint(r)&1 == 0 {
			zeroRegion(out[i][lo:])
		}
		t.tableXOR(out[i], in, lo)
	}
}

// check validates region lengths against the block's rows and columns.
func (b *RowBlock) check(out, in [][]byte, n int) {
	wb := b.w / 8
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
// multiple of 64) of the rows a.dst[:rows]. Column k's matrices start
// at mats[k*per]. acc is the first batch's accumulate mask (bit r:
// row r adds into its destination); later batches accumulate every
// row.
//
//ppm:hotpath
func runBlock(w int, a *blockArgs, rows int, srcs [][]byte, cols []int, mats []uint64, n int, acc uint) {
	per := len(mats) / len(cols)
	for k0 := 0; k0 < len(cols); k0 += blockBatch {
		nb := len(cols) - k0
		if nb > blockBatch {
			nb = blockBatch
		}
		for k := 0; k < nb; k++ {
			a.src[k] = &srcs[cols[k0+k]][0]
			a.mat[k] = &mats[(k0+k)*per]
		}
		blockKernel(w, a, nb, rows, n, acc)
		acc = 1<<uint(rows) - 1
	}
}

// blockKernel dispatches one kernel call to the assembly of width w.
//
//ppm:hotpath
func blockKernel(w int, a *blockArgs, nsrc, rows, n int, acc uint) {
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
	blockKernel(w, &a, 1, 1, n, 1)
}

// AffineImageWords is the length of a term's image under AffineImage:
// w basis words times the 512/w words of a 64-byte chunk.
const AffineImageWords = 512

// AffineImage evaluates the stored matrices of the term (row r, column
// Cols()[k]) the way the kernel does, on each of the field's w basis
// words x^t: for a 64-byte chunk holding x^t at every word position, it
// stores the product word at position p in img[t*(512/w)+p]. For a
// correct block each equals M[r][col]·x^t.
func (b *RowBlock) AffineImage(r, k int, img *[AffineImageWords]uint32) {
	qw := affineQwords(b.w)
	per := len(b.rows) * qw
	affineEval(b.w/8, b.mats[k*per+r*qw:k*per+(r+1)*qw], img)
}

// affineEval is a scalar model of one kernel step on a chunk of each
// basis word: the kernel planarizes the chunk, applies matrix vector s
// to plane rotation s with each byte transformed by the matrix of its
// own qword lane, sums, and un-planarizes. At w=8 the single qword is
// broadcast, so every word position of an image is the same word: the
// model evaluates the first and copies it.
//
// GF2P8AFFINEQB with a zero immediate is linear over GF(2): a matrix
// qword maps a byte to the XOR of the column images of its set bits.
// A basis word has one nonzero byte with one set bit, so exactly one
// rotation brings a nonzero byte to each output byte, and it adds one
// column image. Each qword's eight column images are computed once.
func affineEval(wb int, m []uint64, img *[AffineImageWords]uint32) {
	var cols [8 * 4][8]byte // per qword: images of bits 0..7
	for i, q := range m {
		for c := range cols[i] {
			cols[i][c] = affineByte(q, 1<<uint(c))
		}
	}
	plane := 64 / wb
	positions := plane
	if wb == 1 {
		positions = 1
	}
	for t := 0; t < 8*wb; t++ {
		jx, c := t/8, t%8 // x^t is bit c of word byte jx
		row := img[t*plane : (t+1)*plane]
		for p := 0; p < positions; p++ {
			var word uint32
			for j := 0; j < wb; j++ {
				// Output byte j of word p is chunk byte plane*j+p.
				// Rotation s reads byte (j+s) mod wb of word p there,
				// so only s = jx-j (mod wb) reads a nonzero byte.
				q := 0
				if wb > 1 {
					q = 8*((jx-j+wb)%wb) + (plane*j+p)/8
				}
				word |= uint32(cols[q][c]) << uint(8*j)
			}
			row[p] = word
		}
		for p := positions; p < plane; p++ {
			row[p] = row[0]
		}
	}
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
