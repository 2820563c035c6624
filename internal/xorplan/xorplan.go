// Package xorplan compiles GF(2^w) coefficient matrices into scheduled
// XOR programs and executes them with loop-fused, vectorized XOR
// kernels — the portable backend that closes the gap to the GFNI
// affine kernels on hardware without GF2P8AFFINEQB.
//
// The lowering is the polynomial-ring transform of Detchart/Lacan
// (arXiv:1701.07731): multiplication by a constant a is the XOR, over
// the set bits k of a, of x^k ⊗ v — and x^k ⊗ v is k chained
// "xtimes" passes (shift each w-bit lane left by one, reduce by the
// field polynomial), a pure SWAR sweep over the region. Every output
// row therefore becomes a set of derived sources D(j,k) = x^k ⊗ in[j],
// and the whole matrix application a pure XOR program over the native
// word-interleaved layout — byte-identical with the table and affine
// paths.
//
// The program is then optimised — scheduleSets runs common-subexpression
// extraction over shared source pairs and Prim derivative scheduling
// over the output rows (the program-optimization view of XOR codes,
// Uezato arXiv:2108.02692) — and lowered further for execution:
//
//   - register allocation: derived sources and CSE temps get arena
//     slots by linear-scan liveness, so the live working set is the
//     maximum concurrently-live temps, not the total;
//   - cache-aware tiling: one run sweeps the byte range in tiles sized
//     so (slots × tile) fits the arena budget (default 256 KiB),
//     capped at the kernel driver's 32 KiB so the two tilings compose;
//   - fused execution: output rows XOR up to five sources per
//     destination pass, through 64-bit word sweeps or AVX2/AVX-512
//     VPXOR kernels (PPM_NO_VEC escapes to portable).
//
// Execution state is pooled: steady-state RunOverwrite/RunAccumulate
// perform zero allocations.
package xorplan

import (
	"fmt"
	"sync/atomic"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// Arena budget: the compiled program's temp slots live in one pooled
// backing array of nslots × tile bytes; TileBytes sizes the tile so
// that working set respects the budget, between floor and cap.
const (
	// defaultArenaBudget bounds the live temp working set of one run.
	defaultArenaBudget = 256 << 10
	// minProgramTile floors the internal tile: below this, per-pass
	// dispatch overhead dominates the 64-byte-per-cycle XOR sweeps, so
	// slot-heavy programs spill past the budget toward L2 instead.
	minProgramTile = 2 << 10
	// maxProgramTile caps the internal tile at the kernel driver's
	// default 32 KiB cache-blocking tile, so a program running inside
	// one kernel tile never re-tiles coarser than its caller.
	maxProgramTile = 32 << 10
	// maxScheduledOnes / maxScheduledSet bound the scheduler input. The
	// CSE pass re-scans every surviving source pair each extraction
	// round — rounds × Σ|set|², close to cubic in the expansion size —
	// and the blowup shape is few rows with huge sets (a wide dense
	// whole-strategy G lowers to hundreds of sources per row, shared
	// mostly by coincidence). Past either bound the matrix lowers to
	// the flat program instead: compile stays O(ones) and execution
	// still runs the fused vector kernels. (Plans built only for cost
	// analysis compile the big whole-matrix G of every swept instance;
	// without this gate those compiles dominate the sweep.)
	maxScheduledOnes = 2048
	maxScheduledSet  = 256
)

var arenaBytes atomic.Int64

func init() { arenaBytes.Store(defaultArenaBudget) }

// arenaBudget returns the current temp-arena budget in bytes.
func arenaBudget() int { return int(arenaBytes.Load()) }

// setArenaBudget sets the temp-arena budget: the target byte size of
// one run's live temp working set. n <= 0 restores the default; the
// budget is clamped below at the minimum tile. It is a test seam;
// running programs keep the tile they started with.
func setArenaBudget(n int) {
	if n <= 0 {
		n = defaultArenaBudget
	}
	if n < minProgramTile {
		n = minProgramTile
	}
	arenaBytes.Store(int64(n))
}

type instrKind uint8

const (
	// opXtimes: slot dst = x ⊗ source a (one reduction pass).
	opXtimes instrKind = iota
	// opPair: slot dst = source a ^ source b (a CSE temp).
	opPair
)

// instr is one temp-materialisation step. Source refs are arena slots
// when >= 0, and input region ^ref when negative.
type instr struct {
	kind instrKind
	dst  int32
	a, b int32
}

// outOp computes one output region: starting from a copy of output
// `from` (-1: from nothing), XOR in the sources.
type outOp struct {
	dst  int32
	from int32
	srcs []int32
}

// Program is a compiled, executable XOR program equivalent to one
// coefficient matrix. Immutable after Compile and safe for concurrent
// runs — all mutable state lives in pooled per-run arenas.
type Program struct {
	w          int
	rows, cols int
	nslots     int
	instrs     []instr
	outs       []outOp
	derivative bool
	xors       int // scheduled region-XOR count (setSchedule.XORCount)
	ones       int // unscheduled count: total set bits of the expansion
}

// Compile lowers m over f into an optimised XOR program. Supported
// word widths are 8, 16 and 32 — the fields internal/gf implements.
func Compile(f gf.Field, m *matrix.Matrix) (*Program, error) {
	return compile(f, m, false)
}

// compile is Compile; with accumulate set, no output row of the program
// derives from another, so RunAccumulate can always run it.
func compile(f gf.Field, m *matrix.Matrix, accumulate bool) (*Program, error) {
	w := f.W()
	switch w {
	case 8, 16, 32:
	default:
		return nil, fmt.Errorf("xorplan: unsupported word width %d", w)
	}
	rows, cols := m.Rows(), m.Cols()
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("xorplan: empty %dx%d matrix", rows, cols)
	}
	inCount := cols * w
	sets := make([][]int, rows)
	ones := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a := m.At(i, j)
			for k := 0; k < w; k++ {
				if a>>uint(k)&1 == 1 {
					sets[i] = append(sets[i], j*w+k)
					ones++
				}
			}
		}
	}
	maxSet := 0
	for _, s := range sets {
		if len(s) > maxSet {
			maxSet = len(s)
		}
	}
	var sched *setSchedule
	if ones > maxScheduledOnes || maxSet > maxScheduledSet {
		sched = flatSets(sets, inCount, ones)
	} else {
		sched = scheduleSets(sets, inCount)
	}
	if accumulate {
		sched.withoutDerivatives()
	}
	if err := sched.validate(); err != nil {
		return nil, fmt.Errorf("xorplan: scheduler emitted an invalid program: %w", err)
	}
	return lower(w, rows, cols, sched, ones)
}

// flatSets builds the unoptimised schedule: no temps, no derivatives,
// every output row the plain XOR of its derived sources.
func flatSets(sets [][]int, inCount, ones int) *setSchedule {
	s := &setSchedule{Rows: len(sets), InCount: inCount, XORCount: ones}
	for i, set := range sets {
		s.Ops = append(s.Ops, setOp{Dst: i, From: -1, Srcs: set})
	}
	return s
}

// lower turns the abstract set schedule into the executable form:
// derived-source chains, temp defs and output ops in one linear order,
// with arena slots assigned by linear-scan liveness so the working set
// is the maximum concurrently-live temps.
func lower(w, rows, cols int, sched *setSchedule, ones int) (*Program, error) {
	inCount := cols * w
	total := inCount + len(sched.Temps)
	// slotBacked: derived sources x^k ⊗ in[j] with k >= 1, and CSE
	// temps. k == 0 sources are the raw input regions.
	slotBacked := func(id int) bool { return id >= inCount || id%w != 0 }

	// Derived-source demand: chains must be materialised up to the
	// highest k referenced per column (lower ks are the chain steps).
	maxK := make([]int, cols)
	note := func(id int) {
		if id < inCount {
			if j, k := id/w, id%w; k > maxK[j] {
				maxK[j] = k
			}
		}
	}
	for _, def := range sched.Temps {
		note(def[0])
		note(def[1])
	}
	for _, op := range sched.Ops {
		for _, s := range op.Srcs {
			note(s)
		}
	}

	// Abstract linear program: chains column by column, then CSE temps
	// in definition order, then output ops.
	type absInstr struct {
		kind instrKind
		dst  int
		a, b int
	}
	var abs []absInstr
	for j := 0; j < cols; j++ {
		for k := 1; k <= maxK[j]; k++ {
			abs = append(abs, absInstr{opXtimes, j*w + k, j*w + k - 1, 0})
		}
	}
	for t, def := range sched.Temps {
		abs = append(abs, absInstr{opPair, inCount + t, def[0], def[1]})
	}
	nInstr := len(abs)
	nPos := nInstr + len(sched.Ops)

	// Liveness over the linear order: defPos at definition, lastUse the
	// final reference (a chain step's next xtimes, a temp def, or an
	// output op).
	defPos := make([]int, total)
	lastUse := make([]int, total)
	for i := range defPos {
		defPos[i] = -1
		lastUse[i] = -1
	}
	for p, ai := range abs {
		defPos[ai.dst] = p
		lastUse[ai.dst] = p
	}
	use := func(id, p int) {
		if slotBacked(id) && p > lastUse[id] {
			lastUse[id] = p
		}
	}
	for p, ai := range abs {
		use(ai.a, p)
		if ai.kind == opPair {
			use(ai.b, p)
		}
	}
	for oi, op := range sched.Ops {
		for _, s := range op.Srcs {
			use(s, nInstr+oi)
		}
	}
	dieAt := make([][]int, nPos)
	for _, ai := range abs { // abs order keeps slot assignment deterministic
		if p := lastUse[ai.dst]; p >= 0 {
			dieAt[p] = append(dieAt[p], ai.dst)
		}
	}

	// Linear-scan slot assignment. A source dying at a definition is
	// released *before* the destination slot is drawn, so the def may
	// reuse it in place — the xtimes and pair kernels read each word
	// before writing it, which makes exact-alias reuse safe.
	slotOf := make([]int32, total)
	for i := range slotOf {
		slotOf[i] = -1
	}
	ref := func(id int) int32 {
		if !slotBacked(id) {
			return ^int32(id / w)
		}
		return slotOf[id]
	}
	p := &Program{w: w, rows: rows, cols: cols, xors: sched.XORCount, ones: ones}
	var free []int32
	for pos, ai := range abs {
		a, b := ref(ai.a), ref(ai.b)
		for _, id := range dieAt[pos] {
			if s := slotOf[id]; s >= 0 {
				free = append(free, s)
			}
		}
		var s int32
		if n := len(free); n > 0 {
			s, free = free[n-1], free[:n-1]
		} else {
			s = int32(p.nslots)
			p.nslots++
		}
		slotOf[ai.dst] = s
		if ai.kind == opXtimes {
			p.instrs = append(p.instrs, instr{kind: opXtimes, dst: s, a: a})
		} else {
			p.instrs = append(p.instrs, instr{kind: opPair, dst: s, a: a, b: b})
		}
	}
	for _, op := range sched.Ops {
		oo := outOp{dst: int32(op.Dst), from: int32(op.From)}
		for _, sid := range op.Srcs {
			oo.srcs = append(oo.srcs, ref(sid))
		}
		p.outs = append(p.outs, oo)
		if op.From >= 0 {
			p.derivative = true
		}
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// validate bounds-checks every reference the executor will follow
// against the arenas it will index — temp slots against nslots, input
// refs against cols, output rows against rows — and re-checks the
// write-before-read discipline on outputs. Compile refuses to return a
// program that fails it, so the hot run loop carries no checks.
func (p *Program) validate() error {
	checkSrc := func(ref int32, where string) error {
		if ref >= 0 {
			if int(ref) >= p.nslots {
				return fmt.Errorf("xorplan: %s references temp slot %d of %d", where, ref, p.nslots)
			}
			return nil
		}
		if j := int(^ref); j >= p.cols {
			return fmt.Errorf("xorplan: %s references input %d of %d", where, j, p.cols)
		}
		return nil
	}
	for i, ins := range p.instrs {
		if ins.dst < 0 || int(ins.dst) >= p.nslots {
			return fmt.Errorf("xorplan: instr %d writes temp slot %d of %d", i, ins.dst, p.nslots)
		}
		if err := checkSrc(ins.a, "instr"); err != nil {
			return err
		}
		if ins.kind == opPair {
			if err := checkSrc(ins.b, "instr"); err != nil {
				return err
			}
		}
	}
	written := make([]bool, p.rows)
	for i := range p.outs {
		op := &p.outs[i]
		if op.dst < 0 || int(op.dst) >= p.rows {
			return fmt.Errorf("xorplan: out op %d writes row %d of %d", i, op.dst, p.rows)
		}
		if written[op.dst] {
			return fmt.Errorf("xorplan: out op %d writes row %d twice", i, op.dst)
		}
		if op.from != -1 {
			if op.from < 0 || int(op.from) >= p.rows || !written[op.from] {
				return fmt.Errorf("xorplan: out op %d derives from row %d before it is written", i, op.from)
			}
		}
		for _, s := range op.srcs {
			if err := checkSrc(s, "out op"); err != nil {
				return err
			}
		}
		written[op.dst] = true
	}
	for r, ok := range written {
		if !ok {
			return fmt.Errorf("xorplan: row %d is never written", r)
		}
	}
	return nil
}

// W returns the field word width in bits.
func (p *Program) W() int { return p.w }

// Rows returns the output region count.
func (p *Program) Rows() int { return p.rows }

// Cols returns the input region count.
func (p *Program) Cols() int { return p.cols }

// Slots returns the temp-arena slot count — the maximum
// concurrently-live derived sources and CSE temps of one run.
func (p *Program) Slots() int { return p.nslots }

// HasDerivative reports whether any output derives from another: such
// programs only run in overwrite mode.
func (p *Program) HasDerivative() bool { return p.derivative }

// XORs returns the scheduled region-XOR count of one run (2 per CSE
// temp, one per source XOR, one per derivative copy) — compare against
// Ones.
func (p *Program) XORs() int { return p.xors }

// Ones returns the unscheduled count: the total set bits of the
// matrix's polynomial expansion, what a naive lowering would XOR.
func (p *Program) Ones() int { return p.ones }

// TileBytes returns the byte-range tile one run sweeps per pass: the
// arena budget divided across the temp slots, clamped to
// [minProgramTile, maxProgramTile] and rounded to a multiple of 8 so
// every word width tiles exactly.
func (p *Program) TileBytes() int {
	n := p.nslots
	if n < 1 {
		n = 1
	}
	t := arenaBudget() / n
	if t > maxProgramTile {
		t = maxProgramTile
	}
	if t < minProgramTile {
		t = minProgramTile
	}
	return t &^ 7
}
