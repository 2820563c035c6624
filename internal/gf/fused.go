package gf

import (
	"encoding/binary"
	"fmt"
)

// Fused region kernels: apply a whole row of coefficients in one pass.
//
// The paper's cost unit is the single-term region operation
// mult_XORs(dst, src, a), and every figure counts those. But executing a
// row of r nonzero coefficients as r independent MultXORs calls loads
// and stores the destination region r times — at multi-megabyte region
// sizes the destination traffic dominates. The fused form takes the
// row's terms in batches of blockBatch and streams each destination
// word through a whole batch before storing it, so dst is read and
// written once per batch instead of once per term:
//
//	dst traffic:  2*r region passes  ->  2*ceil(r/blockBatch) passes
//	src traffic:  r passes (unchanged)
//
// With the affine kernels active a batch is a 1-row call of the
// row-block kernel (block.go) over the 64-byte-aligned prefix, with
// coefficient-1 terms as identity matrices; the table-driven cores below
// handle the tail, and the whole region otherwise. Applying several rows
// that share sources in one pass is the RowBlock's job.
//
// This is the operation-fusion idea of Uezato ("Accelerating XOR-based
// Erasure Coding using Program Optimization Techniques", SC'21) applied
// to the GF kernels. The logical mult_XORs count is unchanged: one fused
// row pass performs exactly the same r region operations, and the
// kernel's Stats still count r.
//
// Field.MultXORsMulti(dst, srcs, consts) resolves each constant's
// tables and matrices on the fly (memoized per field, so resolution is a
// cache hit after first use) and skips zero constants. It keeps a
// batch's per-term pointers in fixed-size stack arrays — no per-call
// allocation. Rows applied thousands of times are compiled instead, as
// RowBlocks (block.go); a block runs each row's compiled table path
// (tableRow below) over its tail and, with the affine kernels off, over
// the whole region.

// tableRow is one coefficient row compiled against its lookup tables:
// tableXOR computes dst[i] ^= Σ_k consts[k] * srcs[k][i] over bytes
// [lo:] with the table-driven core. Sources at zero-coefficient
// positions are never touched. A tableRow is immutable and safe for
// concurrent use.
type tableRow interface {
	tableXOR(dst []byte, srcs [][]byte, lo int)
}

// compileTableRow lowers one coefficient row over the field. Zero
// constants are skipped at compile time.
func compileTableRow(f Field, consts []uint32) tableRow {
	var cols []int
	mask := uint32(f.Order() - 1)
	for j, a := range consts {
		if a&mask != 0 {
			cols = append(cols, j)
		}
	}
	switch ff := f.(type) {
	case *field8:
		r := &tableRow8{cols: cols}
		for _, j := range cols {
			var row []uint8 // nil: coefficient 1
			if a := consts[j] & 0xFF; a > 1 {
				row = ff.muls[a].row
			}
			r.rows = append(r.rows, row)
		}
		return r
	case *field16:
		r := &tableRow16{cols: cols}
		for _, j := range cols {
			var t *[2][256]uint16
			if a := consts[j] & 0xFFFF; a > 1 {
				t = ff.multiplier(a).t
			}
			r.tabs = append(r.tabs, t)
		}
		return r
	case field32:
		r := &tableRow32{cols: cols}
		for _, j := range cols {
			var t *[4][256]uint32
			if a := consts[j]; a > 1 {
				t = ff.multiplier(a).t
			}
			r.tabs = append(r.tabs, t)
		}
		return r
	}
	panic(fmt.Sprintf("gf: unknown field %T", f))
}

// checkFused validates the srcs/consts pairing of MultXORsMulti.
func checkFused(nsrcs, nconsts int) {
	if nsrcs != nconsts {
		panic(fmt.Sprintf("gf: fused row has %d sources for %d coefficients", nsrcs, nconsts))
	}
}

// multiAffine is MultXORsMulti's 1-row kernel call:
// dst[:n] ^= Σ_k M_k * srcs[cols[k]][:n], n a multiple of 64 (0 skips).
//
//ppm:hotpath
func multiAffine(w int, dst []byte, srcs [][]byte, cols []int, mats []*uint64, n int) {
	if n == 0 || len(cols) == 0 {
		return
	}
	var a blockArgs
	a.dst[0] = &dst[0]
	runBlock(w, &a, 1, srcs, cols, mats, n, true)
}

// affinePrefix is the length the affine kernels cover for a region of
// n bytes: the 64-byte-aligned prefix, or 0 when they are off.
func affinePrefix(n int) int {
	if !useAffine {
		return 0
	}
	return n &^ 63
}

// --- GF(2^8) ---

type tableRow8 struct {
	cols []int
	rows [][]uint8 // per term; nil: coefficient 1
}

//ppm:hotpath
func (r *tableRow8) tableXOR(dst []byte, srcs [][]byte, lo int) {
	if lo == len(dst) {
		return
	}
	var xs, ts [blockBatch][]byte
	var rows [blockBatch][]uint8
	for k := 0; k < len(r.cols); {
		nx, nt := 0, 0
		for ; k < len(r.cols) && nx+nt < blockBatch; k++ {
			s := srcs[r.cols[k]][lo:]
			if r.rows[k] == nil {
				xs[nx] = s
				nx++
			} else {
				ts[nt] = s
				rows[nt] = r.rows[k]
				nt++
			}
		}
		fuse8Tables(dst[lo:], xs[:nx], ts[:nt], rows[:nt])
	}
}

//ppm:hotpath
func (f *field8) MultXORsMulti(dst []byte, srcs [][]byte, consts []uint32) {
	checkFused(len(srcs), len(consts))
	lo := affinePrefix(len(dst))
	var cols [blockBatch]int
	var mats [blockBatch]*uint64
	var xs, ts [blockBatch][]byte
	var rows [blockBatch][]uint8
	for j := 0; j < len(consts); {
		nb, nx, nt := 0, 0, 0
		for ; j < len(consts) && nb < blockBatch; j++ {
			a := consts[j] & 0xFF
			if a == 0 {
				continue
			}
			s := srcs[j]
			checkRegions(dst, s, 1)
			cols[nb] = j
			if a == 1 {
				mats[nb] = &ident8
				xs[nx] = s[lo:]
				nx++
			} else {
				m := &f.muls[a]
				mats[nb] = &m.aff
				ts[nt] = s[lo:]
				rows[nt] = m.row
				nt++
			}
			nb++
		}
		multiAffine(8, dst, srcs, cols[:nb], mats[:nb], lo)
		fuse8Tables(dst[lo:], xs[:nx], ts[:nt], rows[:nt])
	}
}

// fuse8Tables is the portable GF(2^8) fused core:
// dst ^= Σ xs[k] ^ Σ rows[k][ts[k]], eight bytes per destination
// load/store, scalar tail for the last len(dst) % 8 bytes.
//
//ppm:hotpath
func fuse8Tables(dst []byte, xs, ts [][]byte, rows [][]uint8) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range xs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		for k, s := range ts {
			row := rows[k]
			v := binary.LittleEndian.Uint64(s[i:])
			acc ^= uint64(row[v&0xFF]) |
				uint64(row[v>>8&0xFF])<<8 |
				uint64(row[v>>16&0xFF])<<16 |
				uint64(row[v>>24&0xFF])<<24 |
				uint64(row[v>>32&0xFF])<<32 |
				uint64(row[v>>40&0xFF])<<40 |
				uint64(row[v>>48&0xFF])<<48 |
				uint64(row[v>>56])<<56
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i < len(dst); i++ {
		b := dst[i]
		for _, s := range xs {
			b ^= s[i]
		}
		for k, s := range ts {
			b ^= rows[k][s[i]]
		}
		dst[i] = b
	}
}

// --- GF(2^16) ---

type tableRow16 struct {
	cols []int
	tabs []*[2][256]uint16 // per term; nil: coefficient 1
}

//ppm:hotpath
func (r *tableRow16) tableXOR(dst []byte, srcs [][]byte, lo int) {
	if lo == len(dst) {
		return
	}
	var xs, ts [blockBatch][]byte
	var tabs [blockBatch]*[2][256]uint16
	for k := 0; k < len(r.cols); {
		nx, nt := 0, 0
		for ; k < len(r.cols) && nx+nt < blockBatch; k++ {
			s := srcs[r.cols[k]][lo:]
			if r.tabs[k] == nil {
				xs[nx] = s
				nx++
			} else {
				ts[nt] = s
				tabs[nt] = r.tabs[k]
				nt++
			}
		}
		fuse16Tables(dst[lo:], xs[:nx], ts[:nt], tabs[:nt])
	}
}

//ppm:hotpath
func (f *field16) MultXORsMulti(dst []byte, srcs [][]byte, consts []uint32) {
	checkFused(len(srcs), len(consts))
	lo := affinePrefix(len(dst))
	var cols [blockBatch]int
	var mats [blockBatch]*uint64
	var xs, ts [blockBatch][]byte
	var tabs [blockBatch]*[2][256]uint16
	for j := 0; j < len(consts); {
		nb, nx, nt := 0, 0, 0
		for ; j < len(consts) && nb < blockBatch; j++ {
			a := consts[j] & 0xFFFF
			if a == 0 {
				continue
			}
			s := srcs[j]
			checkRegions(dst, s, 2)
			cols[nb] = j
			if a == 1 {
				mats[nb] = &ident16[0][0]
				xs[nx] = s[lo:]
				nx++
			} else {
				m := f.multiplier(a)
				mats[nb] = &m.aff[0][0]
				ts[nt] = s[lo:]
				tabs[nt] = m.t
				nt++
			}
			nb++
		}
		multiAffine(16, dst, srcs, cols[:nb], mats[:nb], lo)
		fuse16Tables(dst[lo:], xs[:nx], ts[:nt], tabs[:nt])
	}
}

// fuse16Tables is the portable GF(2^16) fused core: four 16-bit
// symbols per destination load/store, scalar 2-byte-word tail for
// region lengths that are not a multiple of 8.
//
//ppm:hotpath
func fuse16Tables(dst []byte, xs, ts [][]byte, tabs []*[2][256]uint16) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range xs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint64(s[i:])
			acc ^= uint64(t[0][v&0xFF]^t[1][v>>8&0xFF]) |
				uint64(t[0][v>>16&0xFF]^t[1][v>>24&0xFF])<<16 |
				uint64(t[0][v>>32&0xFF]^t[1][v>>40&0xFF])<<32 |
				uint64(t[0][v>>48&0xFF]^t[1][v>>56])<<48
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i+2 <= len(dst); i += 2 {
		w := binary.LittleEndian.Uint16(dst[i:])
		for _, s := range xs {
			w ^= binary.LittleEndian.Uint16(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint16(s[i:])
			w ^= t[0][v&0xFF] ^ t[1][v>>8]
		}
		binary.LittleEndian.PutUint16(dst[i:], w)
	}
}

// --- GF(2^32) ---

type tableRow32 struct {
	cols []int
	tabs []*[4][256]uint32 // per term; nil: coefficient 1
}

//ppm:hotpath
func (r *tableRow32) tableXOR(dst []byte, srcs [][]byte, lo int) {
	if lo == len(dst) {
		return
	}
	var xs, ts [blockBatch][]byte
	var tabs [blockBatch]*[4][256]uint32
	for k := 0; k < len(r.cols); {
		nx, nt := 0, 0
		for ; k < len(r.cols) && nx+nt < blockBatch; k++ {
			s := srcs[r.cols[k]][lo:]
			if r.tabs[k] == nil {
				xs[nx] = s
				nx++
			} else {
				ts[nt] = s
				tabs[nt] = r.tabs[k]
				nt++
			}
		}
		fuse32Tables(dst[lo:], xs[:nx], ts[:nt], tabs[:nt])
	}
}

//ppm:hotpath
func (f field32) MultXORsMulti(dst []byte, srcs [][]byte, consts []uint32) {
	checkFused(len(srcs), len(consts))
	lo := affinePrefix(len(dst))
	var cols [blockBatch]int
	var mats [blockBatch]*uint64
	var xs, ts [blockBatch][]byte
	var tabs [blockBatch]*[4][256]uint32
	for j := 0; j < len(consts); {
		nb, nx, nt := 0, 0, 0
		for ; j < len(consts) && nb < blockBatch; j++ {
			a := consts[j]
			if a == 0 {
				continue
			}
			s := srcs[j]
			checkRegions(dst, s, 4)
			cols[nb] = j
			if a == 1 {
				mats[nb] = &ident32[0][0]
				xs[nx] = s[lo:]
				nx++
			} else {
				m := f.multiplier(a)
				mats[nb] = &m.aff[0][0]
				ts[nt] = s[lo:]
				tabs[nt] = m.t
				nt++
			}
			nb++
		}
		multiAffine(32, dst, srcs, cols[:nb], mats[:nb], lo)
		fuse32Tables(dst[lo:], xs[:nx], ts[:nt], tabs[:nt])
	}
}

// fuse32Tables is the portable GF(2^32) fused core: two 32-bit symbols
// per destination load/store, scalar 4-byte-word tail.
//
//ppm:hotpath
func fuse32Tables(dst []byte, xs, ts [][]byte, tabs []*[4][256]uint32) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range xs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint64(s[i:])
			lo := t[0][v&0xFF] ^ t[1][v>>8&0xFF] ^ t[2][v>>16&0xFF] ^ t[3][v>>24&0xFF]
			hi := t[0][v>>32&0xFF] ^ t[1][v>>40&0xFF] ^ t[2][v>>48&0xFF] ^ t[3][v>>56]
			acc ^= uint64(lo) | uint64(hi)<<32
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i+4 <= len(dst); i += 4 {
		w := binary.LittleEndian.Uint32(dst[i:])
		for _, s := range xs {
			w ^= binary.LittleEndian.Uint32(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint32(s[i:])
			w ^= t[0][v&0xFF] ^ t[1][(v>>8)&0xFF] ^ t[2][(v>>16)&0xFF] ^ t[3][v>>24]
		}
		binary.LittleEndian.PutUint32(dst[i:], w)
	}
}
