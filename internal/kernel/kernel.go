// Package kernel implements the matrix-times-block-regions engine shared
// by the traditional decoder and PPM: computing products like
// F^-1 * S * BS where the vector entries are whole sector buffers.
//
// Every nonzero matrix coefficient costs exactly one mult_XORs() region
// operation, the paper's unit of computational cost. The kernel counts
// those operations (atomically, because PPM runs several sub-decodes
// concurrently) so the measured cost of any decode can be compared
// against the analytic C1..C4 formulas — a property the test suite
// exploits heavily. Tiling and fusion change how the bytes are swept,
// never how many logical region operations are counted.
package kernel

import (
	"fmt"
	"sync/atomic"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// Stats accumulates operation counts across one encode/decode. Safe for
// concurrent use.
type Stats struct {
	multXORs atomic.Int64
}

// AddMultXORs records n mult_XORs operations.
func (s *Stats) AddMultXORs(n int64) {
	if s != nil {
		s.multXORs.Add(n)
	}
}

// MultXORs returns the number of mult_XORs performed so far.
func (s *Stats) MultXORs() int64 {
	if s == nil {
		return 0
	}
	return s.multXORs.Load()
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	if s != nil {
		s.multXORs.Store(0)
	}
}

// Sequence selects the calculation order for F^-1 * S * BS (§II-B).
type Sequence int

const (
	// Normal multiplies S by the surviving blocks first, then F^-1 by
	// the intermediate blocks: cost u(F^-1) + u(S). This is the order
	// the open-source SD decoder uses.
	Normal Sequence = iota
	// MatrixFirst multiplies F^-1 * S at matrix level first (scalar
	// cost, ignored per the paper) and then applies the product to the
	// surviving blocks: cost u(F^-1 * S). This is the generator-matrix
	// method.
	MatrixFirst
)

// String names the sequence the way the paper does.
func (s Sequence) String() string {
	switch s {
	case Normal:
		return "normal"
	case MatrixFirst:
		return "matrix-first"
	default:
		return fmt.Sprintf("Sequence(%d)", int(s))
	}
}

// Apply computes out[i] ^= Σ_j M[i][j] * in[j] over block regions.
// Callers that need out = M * in must clear out first (Zero). Each
// nonzero coefficient counts as one region operation.
//
// The sweep is cache-blocked and fused: the whole matrix is applied to
// one tile of the byte range at a time (tile.go), and within a tile
// each row's terms are streamed through the destination in a single
// fused pass (gf.MultXORsMulti), so a tile's sources stay cache-hot
// across rows and each destination word is loaded and stored once per
// row instead of once per term. Lookup tables come from the per-field
// multiplier memos, so the traditional baseline and the compiled PPM
// path share identical region-op arithmetic — the paper's comparisons
// assume a common back end. Apply itself stays serial (and, with the
// memos warm, allocation-free); callers own any block-level
// parallelism.
func Apply(f gf.Field, m *matrix.Matrix, in, out [][]byte, stats *Stats) {
	if m.Rows() != len(out) || m.Cols() != len(in) {
		panic(fmt.Sprintf("kernel: matrix %s against %d inputs, %d outputs", m.Dims(), len(in), len(out)))
	}
	applyTiled(f, m, in, out, 0, regionLen(out))
	stats.AddMultXORs(int64(m.NNZ()))
}

// applyTiled is Apply's tiled inner driver over the [lo, hi) byte range.
//
//ppm:hotpath
//ppm:counted Apply accounts the full NNZ once per logical application
func applyTiled(f gf.Field, m *matrix.Matrix, in, out [][]byte, lo, hi int) {
	if lo >= hi || m.Rows() == 0 {
		return
	}
	arena := getViewArena(len(in))
	views := arena.take(len(in))
	tile := tileSize()
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		for j := range in {
			views[j] = in[j][t:te]
		}
		for i := 0; i < m.Rows(); i++ {
			f.MultXORsMulti(out[i][t:te], views, m.Row(i))
		}
	}
	arena.release()
}

// Zero clears the given regions.
func Zero(regions [][]byte) {
	for _, r := range regions {
		for i := range r {
			r[i] = 0
		}
	}
}

// Product computes out = F^-1 * S * BS into the out regions using the
// requested sequence, where finv is f x f, s is f x q, in holds the q
// surviving regions and out the f faulty regions. The scratch slice, if
// non-nil, must hold f regions of the same size and is used by the
// Normal sequence to hold the intermediate S * BS; pass nil to chain
// the two applications through pooled tile-sized scratch, which keeps
// the intermediate product cache-resident and never materialises it at
// full size.
func Product(f gf.Field, finv, s *matrix.Matrix, in, out, scratch [][]byte, seq Sequence, stats *Stats) {
	if finv.Rows() != finv.Cols() || finv.Cols() != s.Rows() {
		panic(fmt.Sprintf("kernel: shape mismatch F^-1 %s vs S %s", finv.Dims(), s.Dims()))
	}
	switch seq {
	case MatrixFirst:
		g := finv.Mul(s) // scalar-level product; cost ignored per §II-B
		Zero(out)
		Apply(f, g, in, out, stats)
	case Normal:
		if s.Cols() != len(in) || finv.Rows() != len(out) {
			panic(fmt.Sprintf("kernel: matrices %s,%s against %d inputs, %d outputs", finv.Dims(), s.Dims(), len(in), len(out)))
		}
		matChainSpan(f, finv, s, in, out, scratch, 0, regionLen(out))
		stats.AddMultXORs(int64(s.NNZ() + finv.NNZ()))
	default:
		panic(fmt.Sprintf("kernel: unknown sequence %d", int(seq)))
	}
}

// matChainSpan runs the Normal sequence over [lo, hi) tile by tile:
// per tile, S * BS lands in scratch and F^-1 consumes it immediately,
// so the intermediate stays cache-resident (word positions are
// independent, making per-tile chaining exact). With nil scratch the
// intermediate lives in pooled tile-sized buffers.
//
//ppm:hotpath
//ppm:counted Product accounts u(S)+u(F^-1) once per logical product
func matChainSpan(f gf.Field, finv, s *matrix.Matrix, in, out, scratch [][]byte, lo, hi int) {
	if lo >= hi {
		return
	}
	tile := tileSize()
	arena := getViewArena(len(in) + 2*len(out))
	views := arena.take(len(in))
	mid := arena.take(len(out))
	outs := arena.take(len(out))
	var sb *Scratch
	if scratch == nil {
		span := hi - lo
		if span > tile {
			span = tile
		}
		sb = GetScratch(len(out), span)
		scratch = sb.Regions()
	}
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		n := te - t
		for j := range in {
			views[j] = in[j][t:te]
		}
		for i := range out {
			if sb != nil {
				mid[i] = scratch[i][:n]
			} else {
				mid[i] = scratch[i][t:te]
			}
			outs[i] = out[i][t:te]
		}
		Zero(mid)
		for i := 0; i < s.Rows(); i++ {
			f.MultXORsMulti(mid[i], views, s.Row(i))
		}
		Zero(outs)
		for i := 0; i < finv.Rows(); i++ {
			f.MultXORsMulti(outs[i], mid, finv.Row(i))
		}
	}
	sb.Release()
	arena.release()
}

// AllocRegions allocates count regions of size bytes backed by one
// contiguous buffer.
func AllocRegions(count, size int) [][]byte {
	backing := make([]byte, count*size)
	regions := make([][]byte, count)
	for i := range regions {
		regions[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return regions
}

func regionLen(regions [][]byte) int {
	if len(regions) == 0 {
		return 0
	}
	return len(regions[0])
}
