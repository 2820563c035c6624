package kernel

import (
	"errors"
	"fmt"

	"ppm/internal/gf"
	"ppm/internal/matrix"
	"ppm/internal/xorplan"
)

// CompiledMatrix is a matrix pre-lowered for the region kernels: its
// rows are grouped into row blocks (gf.RowBlock) of at most
// gf.BlockRows rows with identical column support, and every
// coefficient is bound to its lookup tables and affine matrices at
// compile time (gf.CompileBlock). Applying the matrix pays no
// zero-coefficient scan and no per-call table construction; with the
// affine kernels active each block loads every source chunk once for
// all of its rows, and a block's destination chunks are read and
// written once per batch of sources instead of once per term.
//
// Application is cache-blocked: the tiled driver applies the whole
// matrix to one tile of the byte range before the next (see tile.go),
// and regions of fanoutMinBytes() and up fan their tile spans out
// across the persistent worker pool, composing with the executors'
// group-level parallelism.
//
// A CompiledMatrix is immutable after Compile and safe for concurrent
// use — the PPM executor applies different compiled groups from
// different worker goroutines.
type CompiledMatrix struct {
	rows, cols int
	blocks     []*gf.RowBlock
	// mults holds the per-row (column, multiplier) pairs of the same
	// lowering, used by term-at-a-time consumers (the small-write path)
	// and by tests asserting multiplier sharing.
	mults [][]CompiledTerm
	nnz   int
	// prog, when non-nil, is the compiled XOR program (internal/xorplan)
	// backing the region-application paths instead of the row blocks —
	// attached by Compile when XorplanActive (GFNI absent, or forced).
	prog *xorplan.Program
}

// CompiledTerm is one nonzero coefficient of a compiled row.
type CompiledTerm struct {
	Col  int
	Mult gf.Multiplier
}

// Compile lowers m over the field. Multipliers are shared between
// equal coefficients (SD's all-ones disk-parity rows compile to one
// XOR multiplier), and the rows are grouped into row blocks.
func Compile(f gf.Field, m *matrix.Matrix) *CompiledMatrix {
	cm := &CompiledMatrix{
		rows:   m.Rows(),
		cols:   m.Cols(),
		blocks: compileBlocks(f, m),
		mults:  make([][]CompiledTerm, m.Rows()),
	}
	cache := make(map[uint32]gf.Multiplier)
	for i := 0; i < m.Rows(); i++ {
		for j, a := range m.Row(i) {
			if a == 0 {
				continue
			}
			mult, ok := cache[a]
			if !ok {
				mult = gf.MultiplierFor(f, a)
				cache[a] = mult
			}
			cm.mults[i] = append(cm.mults[i], CompiledTerm{Col: j, Mult: mult})
			cm.nnz++
		}
	}
	if XorplanActive() {
		// Compiled programs are memoized process-wide, so recompiling the
		// same matrix (per-stripe decode plans, pooled engines) reuses one
		// schedule. A lowering failure just leaves the row kernels serving
		// — except a plan-verification rejection (PPM_VERIFY_PLANS=1),
		// which means the compiler emitted provably wrong code: falling
		// back would mask exactly the bug the gate exists to catch.
		if prog, err := xorplan.CompileCached(f, m); err == nil {
			cm.prog = prog
		} else if errors.Is(err, xorplan.ErrVerify) {
			panic(err)
		}
	}
	return cm
}

// compileBlocks groups the rows of m by column support, in order of
// first appearance, into blocks of at most gf.BlockRows rows. Rows with
// identical support share every source, so a block adds no zero terms;
// all-zero rows form blocks of their own, which overwrite mode clears.
func compileBlocks(f gf.Field, m *matrix.Matrix) []*gf.RowBlock {
	open := make(map[string]int) // support -> index of its open group
	var groups [][]int
	key := make([]byte, (m.Cols()+7)/8)
	for i := 0; i < m.Rows(); i++ {
		for b := range key {
			key[b] = 0
		}
		for j, a := range m.Row(i) {
			if a != 0 {
				key[j/8] |= 1 << uint(j%8)
			}
		}
		g, ok := open[string(key)]
		if !ok || len(groups[g]) == gf.BlockRows {
			g = len(groups)
			groups = append(groups, nil)
			open[string(key)] = g
		}
		groups[g] = append(groups[g], i)
	}
	blocks := make([]*gf.RowBlock, len(groups))
	for g, rows := range groups {
		consts := make([][]uint32, len(rows))
		for r, i := range rows {
			consts[r] = m.Row(i)
		}
		blocks[g] = gf.CompileBlock(f, rows, consts)
	}
	return blocks
}

// Blocks returns the row blocks the matrix compiled to: every row of
// the matrix in exactly one block (planverify proves the lowering).
func (cm *CompiledMatrix) Blocks() []*gf.RowBlock { return cm.blocks }

// Rows returns the compiled row count.
func (cm *CompiledMatrix) Rows() int { return cm.rows }

// Cols returns the compiled column count.
func (cm *CompiledMatrix) Cols() int { return cm.cols }

// NNZ returns the nonzero count, i.e. the mult_XORs cost of one Apply.
func (cm *CompiledMatrix) NNZ() int { return cm.nnz }

// RowTerms returns row i's nonzero terms in column order.
func (cm *CompiledMatrix) RowTerms(i int) []CompiledTerm { return cm.mults[i] }

// checkShape panics unless the in/out counts match the matrix.
func (cm *CompiledMatrix) checkShape(in, out [][]byte) {
	if cm.rows != len(out) || cm.cols != len(in) {
		panic(fmt.Sprintf("kernel: compiled %dx%d against %d inputs, %d outputs", cm.rows, cm.cols, len(in), len(out)))
	}
}

// Apply computes out[i] ^= Σ_j M[i][j] * in[j], like kernel.Apply but
// on the pre-lowered form: tiled, blocked, and — for regions of
// fanoutMinBytes() and up — fanned out across the worker pool.
func (cm *CompiledMatrix) Apply(in, out [][]byte, stats *Stats) {
	cm.apply(in, out, false, stats)
}

// ApplyOverwrite computes out[i] = Σ_j M[i][j] * in[j], fully
// overwriting out — Apply's contract minus the caller-side zeroing
// pass. The row blocks store their first batch instead of adding it to
// out, and an XOR program seeds each destination with its first fused
// XOR (derivative-scheduled rows start from a sibling row), so nothing
// zeroes out first.
func (cm *CompiledMatrix) ApplyOverwrite(in, out [][]byte, stats *Stats) {
	cm.apply(in, out, true, stats)
}

func (cm *CompiledMatrix) apply(in, out [][]byte, overwrite bool, stats *Stats) {
	cm.checkShape(in, out)
	size := regionLen(out)
	if spans := fanoutSpans(size); spans != nil {
		if err := DefaultWorkers().Run(len(spans), func(i int) error {
			cm.applySpan(in, out, spans[i][0], spans[i][1], overwrite)
			return nil
		}); err != nil {
			panic(err)
		}
	} else {
		cm.applySpan(in, out, 0, size, overwrite)
	}
	stats.AddMultXORs(int64(cm.nnz))
}

// fanoutSpans splits a region of size bytes into tile spans for the
// worker pool, or returns nil when it stays serial: below
// fanoutMinBytes(), or too few tiles to split.
func fanoutSpans(size int) [][2]int {
	if size < fanoutMinBytes() {
		return nil
	}
	return tileSpans(size, applyWorkers(), tileSize())
}

// applySpan is the tiled inner driver: whole matrix, one tile at a
// time, with pooled view headers presenting each tile of the regions
// to the row blocks. overwrite selects out = M * in over out ^= M * in.
//
//ppm:hotpath
//ppm:counted apply/CompiledProductRange account the full NNZ once per logical application
func (cm *CompiledMatrix) applySpan(in, out [][]byte, lo, hi int, overwrite bool) {
	if lo >= hi {
		return
	}
	// The XOR program computes the same sum and does its own
	// arena-budget tiling (capped at this driver's tile, so the two
	// blockings compose). Derivative-scheduled programs copy between
	// output rows and only run in overwrite mode.
	if cm.prog != nil && overwrite {
		cm.prog.RunOverwrite(in, out, lo, hi)
		return
	}
	if cm.prog != nil && !cm.prog.HasDerivative() {
		cm.prog.RunAccumulate(in, out, lo, hi)
		return
	}
	arena := getViewArena(len(in) + len(out))
	views := arena.take(len(in))
	outs := arena.take(len(out))
	tile := tileSize()
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		for j := range in {
			views[j] = in[j][t:te]
		}
		for i := range out {
			outs[i] = out[i][t:te]
		}
		for _, b := range cm.blocks {
			b.Apply(outs, views, overwrite)
		}
	}
	arena.release()
}

// overwriteTile computes out = M * in over whole tile views: the XOR
// program's overwrite run, or every row block in overwrite mode.
//
//ppm:hotpath
//ppm:counted chainSpan's callers account u(S)+u(F^-1) once per logical product
func (cm *CompiledMatrix) overwriteTile(in, out [][]byte, n int) {
	if cm.prog != nil {
		cm.prog.RunOverwrite(in, out, 0, n)
		return
	}
	for _, b := range cm.blocks {
		b.Apply(out, in, true)
	}
}

// chainSpan runs the Normal sequence over [lo, hi) with the
// intermediate product tiled through cache: per tile, S * BS lands in
// a tile-sized scratch and F^-1 consumes it immediately, so the
// intermediate regions never materialise at full size (word positions
// are independent, which makes the per-tile chaining exact). scratch,
// if non-nil, provides caller-owned intermediate regions instead of
// pooled tile scratch. Both stages overwrite their destinations, so no
// tile is zeroed first.
//
//ppm:hotpath
func chainSpan(finv, s *CompiledMatrix, in, out, scratch [][]byte, lo, hi int) {
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
		scratch = sb.Regions() // tile-relative: sliced [:n] per tile below
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
		s.overwriteTile(views, mid, n)
		finv.overwriteTile(mid, outs, n)
	}
	sb.Release()
	arena.release()
}

// CompiledProduct mirrors Product for compiled matrices: out =
// F^-1 * S * BS under the given sequence, where g is the compiled
// MatrixFirst product and finv/s the compiled Normal-sequence pair.
// Only the matrices the sequence needs may be non-nil. The Normal
// sequence chains both applications tile-by-tile, so the intermediate
// S * BS stays cache-resident; large regions fan tile spans across the
// worker pool.
func CompiledProduct(finv, s, g *CompiledMatrix, in, out, scratch [][]byte, seq Sequence, stats *Stats) {
	switch seq {
	case MatrixFirst:
		g.ApplyOverwrite(in, out, stats)
	case Normal:
		s.checkShape(in, scratchOrOut(scratch, out))
		finv.checkShape(scratchOrOut(scratch, out), out)
		size := regionLen(out)
		if spans := fanoutSpans(size); spans != nil {
			if err := DefaultWorkers().Run(len(spans), func(i int) error {
				chainSpan(finv, s, in, out, scratch, spans[i][0], spans[i][1])
				return nil
			}); err != nil {
				panic(err)
			}
		} else {
			chainSpan(finv, s, in, out, scratch, 0, size)
		}
		stats.AddMultXORs(int64(s.nnz + finv.nnz))
	default:
		panic(fmt.Sprintf("kernel: unknown sequence %d", int(seq)))
	}
}

// CompiledProductRange is CompiledProduct restricted to the [lo, hi)
// byte sub-range and always serial — for the PPM executor's sub-range
// decodes and for byte-range executors (block-parallel decoding) that
// own their own fan-out and call this from per-chunk workers. Both
// sequences overwrite only the [lo, hi) range, so one chunk worker
// never touches another's bytes. Counts the full matrix nnz; callers
// splitting one logical product across ranges pass nil stats and
// account once themselves.
func CompiledProductRange(finv, s, g *CompiledMatrix, in, out, scratch [][]byte, seq Sequence, lo, hi int, stats *Stats) {
	switch seq {
	case MatrixFirst:
		g.checkShape(in, out)
		g.applySpan(in, out, lo, hi, true)
		stats.AddMultXORs(int64(g.nnz))
	case Normal:
		s.checkShape(in, scratchOrOut(scratch, out))
		finv.checkShape(scratchOrOut(scratch, out), out)
		chainSpan(finv, s, in, out, scratch, lo, hi)
		stats.AddMultXORs(int64(s.nnz + finv.nnz))
	default:
		panic(fmt.Sprintf("kernel: unknown sequence %d", int(seq)))
	}
}

// scratchOrOut sizes shape checks for the Normal chain: the
// intermediate vector has one region per output row.
func scratchOrOut(scratch, out [][]byte) [][]byte {
	if scratch != nil {
		return scratch
	}
	return out
}

// ChunkRanges splits a region byte range [0, size) into at most parts
// word-aligned, non-empty half-open ranges — the byte-range splitting
// used by block-level parallel decoding.
func ChunkRanges(size, parts, wordBytes int) [][2]int {
	words := size / wordBytes
	if parts > words {
		parts = words
	}
	if parts < 1 {
		parts = 1
	}
	var ranges [][2]int
	start := 0
	for i := 0; i < parts; i++ {
		w := words / parts
		if i < words%parts {
			w++
		}
		end := start + w*wordBytes
		if end > start {
			ranges = append(ranges, [2]int{start, end})
		}
		start = end
	}
	return ranges
}
