package gf

import (
	"encoding/binary"
	"fmt"
)

// Table-driven row kernels: the portable half of a RowBlock (block.go).
//
// A block's affine kernels cover the 64-byte-aligned prefix of its
// regions. Each of its rows also compiles to a tableRow, which covers
// the tail and, with the affine kernels off, the whole region. A
// tableRow streams each destination word through a batch of up to
// blockBatch terms before storing it, so dst is read and written once
// per batch instead of once per term:
//
//	dst traffic:  2*r region passes  ->  2*ceil(r/blockBatch) passes
//	src traffic:  r passes (unchanged)
//
// This is the operation-fusion idea of Uezato ("Accelerating XOR-based
// Erasure Coding using Program Optimization Techniques", SC'21) applied
// to the GF kernels. The logical mult_XORs count is unchanged: one fused
// row pass performs exactly the same r region operations, and the
// kernel's Stats still count r.

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
	mask := uint32(f.Order() - 1)
	nz := 0
	for _, a := range consts {
		if a&mask != 0 {
			nz++
		}
	}
	cols := make([]int, 0, nz)
	for j, a := range consts {
		if a&mask != 0 {
			cols = append(cols, j)
		}
	}
	switch ff := f.(type) {
	case *field8:
		r := &tableRow8{cols: cols, rows: make([][]uint8, nz)}
		for k, j := range cols {
			if a := consts[j] & 0xFF; a > 1 {
				r.rows[k] = ff.muls[a].row
			}
		}
		return r
	case *field16:
		r := &tableRow16{cols: cols, tabs: make([]*[2][256]uint16, nz)}
		for k, j := range cols {
			if a := consts[j] & 0xFFFF; a > 1 {
				r.tabs[k] = ff.multiplier(a).t
			}
		}
		return r
	case field32:
		r := &tableRow32{cols: cols, tabs: make([]*[4][256]uint32, nz)}
		for k, j := range cols {
			if a := consts[j]; a > 1 {
				r.tabs[k] = ff.multiplier(a).t
			}
		}
		return r
	}
	panic(fmt.Sprintf("gf: unknown field %T", f))
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
