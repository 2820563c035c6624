package kernel

import (
	"fmt"

	"ppm/internal/gf"
	"ppm/internal/matrix"
	"ppm/internal/xorplan"
)

// CompiledMatrix is a matrix pre-lowered for the region kernels: its
// rows are grouped into row blocks (gf.RowBlock) of at most
// gf.BlockRows rows with identical column support, and every
// coefficient is bound to its affine matrices at compile time and to
// its lookup tables on the first application that needs them
// (gf.CompileBlock). Applying the matrix pays no zero-coefficient
// scan; with the affine kernels active each block loads every source
// chunk once for all of its rows, and a block's destination chunks are
// read and written once per batch of sources instead of once per term.
//
// Application is cache-blocked: the tiled driver applies the whole
// matrix to one tile of the byte range before the next (see tile.go),
// and regions of fanoutMinBytes() and up fan their tile spans out
// across the persistent worker pool, composing with the executors'
// group-level parallelism.
//
// A matrix compiled with CompileAccumulating has trailing rows that
// accumulate even under an overwrite apply: one apply then stores the
// leading rows and adds the trailing ones into their destinations, in
// one pass over the shared sources, and no caller passes a mode per
// call.
//
// A CompiledMatrix is immutable after Compile and safe for concurrent
// use — the PPM executor applies different compiled groups from
// different worker goroutines.
type CompiledMatrix struct {
	rows, cols int
	acc        int // trailing rows that accumulate under an overwrite apply
	blocks     []*gf.RowBlock
	nnz        int
	// prog, when non-nil, is the compiled XOR program (internal/xorplan)
	// of the leading rows-acc rows, and accProg that of the trailing acc
	// rows: they back the region-application paths instead of the row
	// blocks, one after the other. Compile attaches them when
	// XorplanActive (GFNI absent, or forced).
	prog, accProg *xorplan.Program
}

// Compile lowers m over the field: its rows are grouped into row
// blocks, each coefficient bound to its affine matrices. m must not
// change afterwards: the blocks read its rows when they lower their
// table path.
func Compile(f gf.Field, m *matrix.Matrix) *CompiledMatrix {
	return CompileAccumulating(f, m, 0)
}

// CompileAccumulating is Compile with the last acc rows of m in
// accumulate mode: an overwrite apply computes out[i] = (M·in)[i] for
// the leading rows and out[i] ^= (M·in)[i] for the trailing acc rows,
// and an accumulating apply adds into every row. Rows of both modes
// that share a column support share a row block, so a source is read
// once for all of them. acc must lie in [0, m.Rows()].
func CompileAccumulating(f gf.Field, m *matrix.Matrix, acc int) *CompiledMatrix {
	if acc < 0 || acc > m.Rows() {
		panic(fmt.Sprintf("kernel: %d accumulating rows of a %d-row matrix", acc, m.Rows()))
	}
	cm := &CompiledMatrix{rows: m.Rows(), cols: m.Cols(), acc: acc, blocks: compileBlocks(f, m, acc)}
	for _, b := range cm.blocks {
		cm.nnz += b.Terms()
	}
	if XorplanActive() {
		cm.prog, cm.accProg = compilePrograms(f, m, acc)
	}
	return cm
}

// compilePrograms lowers the overwrite rows and the accumulate rows of
// m into one XOR program each; accProg is nil when no row accumulates,
// and derives no row from another, so it always accumulates. Compiled
// programs are memoized process-wide, so recompiling the same matrix
// (per-stripe decode plans, pooled engines) reuses one schedule. A
// matrix without overwrite rows, or one whose lowering fails, gets no
// program at all, and the row kernels serve it.
func compilePrograms(f gf.Field, m *matrix.Matrix, acc int) (prog, accProg *xorplan.Program) {
	split := m.Rows() - acc
	if split == 0 {
		return nil, nil
	}
	over := m
	if acc > 0 {
		var under *matrix.Matrix
		over, under = m.SplitRows(split)
		p, err := xorplan.CompileCachedAccumulate(f, under)
		if err != nil {
			return nil, nil
		}
		accProg = p
	}
	prog, err := xorplan.CompileCached(f, over)
	if err != nil {
		return nil, nil
	}
	return prog, accProg
}

// compileBlocks groups the rows of m by column support, in order of
// first appearance, into blocks of at most gf.BlockRows rows; the last
// acc rows accumulate. Rows with identical support share every source,
// so a block adds no zero terms; all-zero rows form blocks of their
// own, which overwrite mode clears. The rows are laid out block after
// block for one gf.CompileBlock call.
func compileBlocks(f gf.Field, m *matrix.Matrix, acc int) []*gf.RowBlock {
	n, kl := m.Rows(), (m.Cols()+7)/8
	if n == 0 {
		return nil
	}
	bitmap := make([]byte, n*kl)
	for i := 0; i < n; i++ {
		for j, a := range m.Row(i) {
			if a != 0 {
				bitmap[i*kl+j/8] |= 1 << uint(j%8)
			}
		}
	}
	supports := string(bitmap)      // row i's support is supports[i*kl:(i+1)*kl]
	open := make(map[string]int, n) // support -> index of its open block
	block := make([]int, n)         // row -> its block
	sizes := make([]int, 0, n)
	for i := range block {
		key := supports[i*kl : (i+1)*kl]
		g, ok := open[key]
		if !ok || sizes[g] == gf.BlockRows {
			g = len(sizes)
			sizes = append(sizes, 0)
			open[key] = g
		}
		block[i] = g
		sizes[g]++
	}
	ends := make([]int, len(sizes)) // block g's rows end at ends[g]
	for g, size := range sizes {
		ends[g] = size
		if g > 0 {
			ends[g] += ends[g-1]
		}
	}
	next := sizes // reused as each block's fill cursor
	for g := range next {
		next[g] = ends[g] - next[g]
	}
	rows := make([]int, n)
	consts := make([][]uint32, n)
	var modes []bool
	if acc > 0 {
		modes = make([]bool, n)
	}
	for i, g := range block {
		rows[next[g]], consts[next[g]] = i, m.Row(i)
		if acc > 0 {
			modes[next[g]] = i >= n-acc
		}
		next[g]++
	}
	return gf.CompileBlock(f, rows, consts, ends, modes)
}

// Blocks returns the row blocks the matrix compiled to: every row of
// the matrix in exactly one block (planverify proves the lowering).
func (cm *CompiledMatrix) Blocks() []*gf.RowBlock { return cm.blocks }

// Rows returns the compiled row count.
func (cm *CompiledMatrix) Rows() int { return cm.rows }

// Cols returns the compiled column count.
func (cm *CompiledMatrix) Cols() int { return cm.cols }

// Accumulating returns how many trailing rows accumulate under an
// overwrite apply (CompileAccumulating); 0 for Compile.
func (cm *CompiledMatrix) Accumulating() int { return cm.acc }

// NNZ returns the nonzero count, i.e. the mult_XORs cost of one Apply.
func (cm *CompiledMatrix) NNZ() int { return cm.nnz }

// checkShape panics unless the in/out counts match the matrix.
func (cm *CompiledMatrix) checkShape(in, out [][]byte) {
	if cm.rows != len(out) || cm.cols != len(in) {
		panic(fmt.Sprintf("kernel: compiled %dx%d against %d inputs, %d outputs", cm.rows, cm.cols, len(in), len(out)))
	}
}

// Apply computes out[i] ^= Σ_j M[i][j] * in[j] over block regions:
// tiled, blocked, and — for regions of fanoutMinBytes() and up — fanned
// out across the worker pool. Each nonzero coefficient counts as one
// region operation.
func (cm *CompiledMatrix) Apply(in, out [][]byte, stats *Stats) {
	cm.apply(in, out, false, stats)
}

// ApplyOverwrite computes out[i] = Σ_j M[i][j] * in[j], fully
// overwriting out — Apply's contract minus the caller-side zeroing
// pass. The row blocks store their first batch instead of adding it to
// out, and an XOR program seeds each destination with its first fused
// XOR (derivative-scheduled rows start from a sibling row), so nothing
// zeroes out first. Rows compiled to accumulate add into out instead.
func (cm *CompiledMatrix) ApplyOverwrite(in, out [][]byte, stats *Stats) {
	cm.apply(in, out, true, stats)
}

// ApplyRange is Apply, or ApplyOverwrite when overwrite is set,
// restricted to the [lo, hi) byte range of every region and always
// serial: for executors that split one product across byte ranges
// themselves. It touches no byte outside the range and counts the full
// NNZ; callers splitting one logical product pass nil stats and account
// once.
func (cm *CompiledMatrix) ApplyRange(in, out [][]byte, lo, hi int, overwrite bool, stats *Stats) {
	cm.checkShape(in, out)
	cm.applySpan(in, out, lo, hi, overwrite)
	stats.AddMultXORs(int64(cm.nnz))
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

// FanoutSpans returns the tile spans a compiled apply over regions of
// size bytes fans out across the worker pool, or nil when it stays
// serial: for executors that fan a chain of applications out the same
// way.
func FanoutSpans(size int) [][2]int { return fanoutSpans(size) }

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
//ppm:counted apply, ApplyRange and CompiledProductRange account the full NNZ once per logical application
func (cm *CompiledMatrix) applySpan(in, out [][]byte, lo, hi int, overwrite bool) {
	if lo >= hi {
		return
	}
	// The XOR programs compute the same sums and do their own
	// arena-budget tiling (capped at this driver's tile, so the two
	// blockings compose).
	if cm.runPrograms(in, out, lo, hi, overwrite) {
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

// runPrograms runs the XOR programs over [lo, hi) in the apply's mode,
// the overwrite rows' program and then the accumulate rows', and
// reports whether they served it. They do not when none is attached,
// or when an accumulating apply meets a derivative-scheduled program:
// it copies between output rows, which is sound only in overwrite
// mode. The row blocks then serve the whole apply.
//
//ppm:hotpath
//ppm:counted applySpan's and overwriteTile's callers account the full NNZ once per logical application
func (cm *CompiledMatrix) runPrograms(in, out [][]byte, lo, hi int, overwrite bool) bool {
	if cm.prog == nil || (!overwrite && cm.prog.HasDerivative()) {
		return false
	}
	split := cm.rows - cm.acc
	if overwrite {
		cm.prog.RunOverwrite(in, out[:split], lo, hi)
	} else {
		cm.prog.RunAccumulate(in, out[:split], lo, hi)
	}
	if cm.accProg != nil {
		cm.accProg.RunAccumulate(in, out[split:], lo, hi)
	}
	return true
}

// overwriteTile computes out = M * in over whole tile views (the
// trailing rows of an accumulating matrix add in): the XOR programs'
// run, or every row block in overwrite mode.
//
//ppm:hotpath
//ppm:counted chainSpan's callers account u(S)+u(F^-1) once per logical product
func (cm *CompiledMatrix) overwriteTile(in, out [][]byte, n int) {
	if cm.runPrograms(in, out, 0, n, true) {
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

// CompiledProduct computes out = F^-1 * S * BS under the given
// sequence, where g is the compiled MatrixFirst product and finv/s the
// compiled Normal-sequence pair.
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
// byte sub-range and always serial — for the plan executor's
// byte-range calls (core.ExecuteRange, which repair plans'
// ExecuteRange reads through) and for byte-range executors
// (block-parallel decoding) that own their own fan-out and call this
// from per-chunk workers. Both sequences overwrite only the [lo, hi)
// range, so one chunk worker never touches another's bytes. Counts the
// full matrix nnz; callers splitting one logical product across ranges
// pass nil stats and account once themselves.
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
