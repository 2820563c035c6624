package planverify

import (
	"fmt"
	"math/bits"

	"ppm/internal/gf"
	"ppm/internal/matrix"
	"ppm/internal/xorplan"
)

// The symbolic domain for XOR programs: each buffer (input region,
// arena slot, output row) is a coefficient vector over the program's
// cols inputs — out = vec means out[t] = Σ_j vec[j]·in[j][t] for every
// word position t. The three executor operations are linear, so the
// abstract transfer functions are exact, not approximations:
//
//	xtimes (one shift-and-reduce pass)  ⇒  multiply every coefficient
//	    by x (the field element 2: the polynomial-basis generator);
//	pair / XOR accumulate               ⇒  coefficient-wise XOR (GF
//	    addition);
//	derivative copy from an earlier row ⇒  start from that row's vector.
//
// A program is correct iff every output row's final vector equals the
// corresponding row of the source coefficient matrix — which is exactly
// what VerifyProgramView proves, with no input sampling.

const objXorProgram = "xorplan-program"

// xorProgState carries one verification walk.
type xorProgState struct {
	f        gf.Field
	m        *matrix.Matrix
	v        *xorplan.View
	findings []Finding

	slotVec [][]uint32 // nil = unwritten
	slotDef []int      // instr index of the live def, -1 none
	slotUse []bool     // live def has been read
	rowVec  [][]uint32 // nil = unwritten
}

func (st *xorProgState) reportf(pass string, op int, format string, args ...interface{}) {
	st.findings = append(st.findings, Finding{
		Object: objXorProgram, Pass: pass, OpIndex: op,
		Message: fmt.Sprintf(format, args...),
	})
}

// VerifyProgram proves a compiled program equal to its source matrix
// and additionally checks the executable's tile geometry against the
// arena bounds the runner will index. A nil return slice means the
// program is proven.
func VerifyProgram(f gf.Field, m *matrix.Matrix, p *xorplan.Program) []Finding {
	v := p.View()
	fs := VerifyProgramView(f, m, &v)
	// Tile/arena bounds: one run slices the pooled backing array into
	// Slots tiles of TileBytes each; the tile must stay word-aligned
	// (the kernels sweep 8-byte words) and inside the clamp range the
	// compiler promises, or the executor reads past its arena.
	tile := p.TileBytes()
	if tile <= 0 || tile%8 != 0 {
		fs = append(fs, Finding{Object: objXorProgram, Pass: "bounds", OpIndex: -1,
			Message: fmt.Sprintf("tile %d bytes is not a positive multiple of 8", tile)})
	}
	if tile < f.WordBytes() {
		fs = append(fs, Finding{Object: objXorProgram, Pass: "bounds", OpIndex: -1,
			Message: fmt.Sprintf("tile %d bytes cannot hold one %d-byte word", tile, f.WordBytes())})
	}
	if max := 32 << 10; tile > max {
		fs = append(fs, Finding{Object: objXorProgram, Pass: "bounds", OpIndex: -1,
			Message: fmt.Sprintf("tile %d bytes exceeds the %d-byte kernel tile cap", tile, max)})
	}
	return fs
}

// VerifyProgramView runs the symbolic and structural passes over an
// exported program view. The view may be a mutant (the mutation
// harness feeds corrupted copies); the walk never indexes out of range
// on malformed references — it reports them as bounds findings instead.
func VerifyProgramView(f gf.Field, m *matrix.Matrix, v *xorplan.View) []Finding {
	st := &xorProgState{f: f, m: m, v: v}
	if v.W != f.W() {
		st.reportf("structure", -1, "program word width %d does not match field %d", v.W, f.W())
	}
	if v.Rows != m.Rows() || v.Cols != m.Cols() {
		st.reportf("structure", -1, "program shape %dx%d does not match matrix %dx%d",
			v.Rows, v.Cols, m.Rows(), m.Cols())
		return st.findings // nothing sensible to interpret against
	}
	if v.Slots < 0 {
		st.reportf("bounds", -1, "negative slot count %d", v.Slots)
		return st.findings
	}
	st.slotVec = make([][]uint32, v.Slots)
	st.slotDef = make([]int, v.Slots)
	st.slotUse = make([]bool, v.Slots)
	for i := range st.slotDef {
		st.slotDef[i] = -1
	}
	st.rowVec = make([][]uint32, v.Rows)

	for i := range v.Instrs {
		st.instr(i)
	}
	for i := range v.Outs {
		st.out(i)
	}
	st.flushLiveness()
	st.checkStats()
	return st.findings
}

// readSrc resolves a source reference symbolically, reporting bounds
// and liveness violations. The returned vector is never nil.
func (st *xorProgState) readSrc(ref int32, op int, kind string) []uint32 {
	zero := make([]uint32, st.v.Cols)
	if ref < 0 {
		j := int(^ref)
		if j >= st.v.Cols {
			st.reportf("bounds", op, "%s references input %d of %d", kind, j, st.v.Cols)
			return zero
		}
		vec := zero
		vec[j] = 1
		return vec
	}
	s := int(ref)
	if s >= st.v.Slots {
		st.reportf("bounds", op, "%s references slot %d of %d", kind, s, st.v.Slots)
		return zero
	}
	if st.slotVec[s] == nil {
		st.reportf("liveness", op, "%s reads slot %d before any write (stale pooled-arena bytes)", kind, s)
		return zero
	}
	st.slotUse[s] = true
	return st.slotVec[s]
}

// instr interprets one temp-materialisation step.
func (st *xorProgState) instr(i int) {
	ins := st.v.Instrs[i]
	var vec []uint32
	if ins.Xtimes {
		a := st.readSrc(ins.A, i, "xtimes instr")
		vec = make([]uint32, st.v.Cols)
		for j, c := range a {
			vec[j] = st.f.Mul(c, 2) // one shift-and-reduce pass = multiply by x
		}
	} else {
		a := st.readSrc(ins.A, i, "pair instr")
		b := st.readSrc(ins.B, i, "pair instr")
		vec = make([]uint32, st.v.Cols)
		for j := range vec {
			vec[j] = a[j] ^ b[j]
		}
	}
	s := int(ins.Dst)
	if s < 0 || s >= st.v.Slots {
		st.reportf("bounds", i, "instr writes slot %d of %d", s, st.v.Slots)
		return
	}
	// Dead-store check: overwriting a live, never-read definition means
	// the allocator materialised a temp nothing consumes — a dropped use
	// somewhere downstream.
	if st.slotDef[s] >= 0 && !st.slotUse[s] {
		st.reportf("liveness", st.slotDef[s], "slot %d is overwritten by instr %d before its value is ever read", s, i)
	}
	st.slotVec[s] = vec
	st.slotDef[s] = i
	st.slotUse[s] = false
}

// out interprets one output op and compares the result against the
// matrix row.
func (st *xorProgState) out(i int) {
	op := st.v.Outs[i]
	opIdx := len(st.v.Instrs) + i
	dst := int(op.Dst)
	if dst < 0 || dst >= st.v.Rows {
		st.reportf("bounds", opIdx, "out op writes row %d of %d", dst, st.v.Rows)
		return
	}
	if st.rowVec[dst] != nil {
		st.reportf("structure", opIdx, "row %d is written twice", dst)
		return
	}
	vec := make([]uint32, st.v.Cols)
	if op.From != -1 {
		from := int(op.From)
		switch {
		case from < 0 || from >= st.v.Rows:
			st.reportf("bounds", opIdx, "out op derives from row %d of %d", from, st.v.Rows)
		case from == dst:
			// Unreachable while the write-twice check holds, but the alias
			// discipline deserves its own pass: copying from the
			// destination would read bytes the overwrite run never defined.
			st.reportf("alias", opIdx, "out op derives row %d from itself", dst)
		case st.rowVec[from] == nil:
			st.reportf("alias", opIdx, "out op derives from row %d before it is written", from)
		default:
			copy(vec, st.rowVec[from])
		}
	}
	for _, ref := range op.Srcs {
		src := st.readSrc(ref, opIdx, "out op")
		for j := range vec {
			vec[j] ^= src[j]
		}
	}
	st.rowVec[dst] = vec
	for j := 0; j < st.v.Cols; j++ {
		if vec[j] != st.m.At(dst, j) {
			st.reportf("symbolic", opIdx,
				"row %d computes coefficient %#x at column %d, matrix has %#x",
				dst, vec[j], j, st.m.At(dst, j))
			return // one mismatch per row keeps the diagnosis readable
		}
	}
}

// flushLiveness reports rows never written and temp definitions never
// consumed once the whole program has run.
func (st *xorProgState) flushLiveness() {
	for r, vec := range st.rowVec {
		if vec == nil {
			st.reportf("structure", -1, "row %d is never written", r)
		}
	}
	for s, used := range st.slotUse {
		if st.slotDef[s] >= 0 && !used {
			st.reportf("liveness", st.slotDef[s], "slot %d holds a value no instruction or output ever reads", s)
		}
		if st.slotDef[s] < 0 && st.v.Slots > 0 {
			// The linear-scan allocator only grows the arena when a value
			// is placed, so a never-written slot means Slots overstates the
			// arena one run will zero and sweep.
			st.reportf("liveness", -1, "arena slot %d is allocated but never written", s)
		}
	}
}

// checkStats recomputes the program's cost metrics from the ops it
// actually contains and compares them with the counters the kernel
// layer will feed into Stats.MultXORs accounting and the benchmarks.
func (st *xorProgState) checkStats() {
	pairs, outXORs, derivs := 0, 0, 0
	for _, ins := range st.v.Instrs {
		if !ins.Xtimes {
			pairs++
		}
	}
	for _, op := range st.v.Outs {
		outXORs += len(op.Srcs)
		if op.From >= 0 {
			derivs++
		}
	}
	// The set-schedule metric: 2 per CSE temp (copy + XOR),
	// |Srcs| per output op, +1 per derivative op for the parent copy.
	// Xtimes chain steps are derived-source materialisation, not
	// schedule XORs, and are deliberately outside the metric.
	if want := 2*pairs + outXORs + derivs; st.v.XORs != want {
		st.reportf("stats", -1, "program reports %d scheduled XORs, its ops perform %d", st.v.XORs, want)
	}
	ones := 0
	for i := 0; i < st.m.Rows(); i++ {
		for j := 0; j < st.m.Cols(); j++ {
			ones += bits.OnesCount32(st.m.At(i, j))
		}
	}
	if st.v.Ones != ones {
		st.reportf("stats", -1, "program reports %d expansion ones, the matrix has %d", st.v.Ones, ones)
	}
}

// interpretView executes a view concretely on one word per region — the
// ground-truth oracle the mutation harness and the fuzzer use to decide
// whether a mutant actually changed program semantics. Returns ok=false
// when the view is too malformed to run (out-of-range references).
func interpretView(f gf.Field, v *xorplan.View, in []uint32) (out []uint32, ok bool) {
	slots := make([]uint32, v.Slots)
	written := make([]bool, v.Slots)
	read := func(ref int32) (uint32, bool) {
		if ref < 0 {
			j := int(^ref)
			if j >= len(in) {
				return 0, false
			}
			return in[j], true
		}
		if int(ref) >= len(slots) || !written[ref] {
			return 0, false
		}
		return slots[ref], true
	}
	for _, ins := range v.Instrs {
		a, okA := read(ins.A)
		if !okA {
			return nil, false
		}
		var val uint32
		if ins.Xtimes {
			val = f.Mul(a, 2)
		} else {
			b, okB := read(ins.B)
			if !okB {
				return nil, false
			}
			val = a ^ b
		}
		if ins.Dst < 0 || int(ins.Dst) >= len(slots) {
			return nil, false
		}
		slots[ins.Dst] = val
		written[ins.Dst] = true
	}
	out = make([]uint32, v.Rows)
	done := make([]bool, v.Rows)
	for _, op := range v.Outs {
		if op.Dst < 0 || int(op.Dst) >= v.Rows {
			return nil, false
		}
		var val uint32
		if op.From >= 0 {
			if int(op.From) >= v.Rows || !done[op.From] {
				return nil, false
			}
			val = out[op.From]
		}
		for _, ref := range op.Srcs {
			s, okS := read(ref)
			if !okS {
				return nil, false
			}
			val ^= s
		}
		out[op.Dst] = val
		done[op.Dst] = true
	}
	return out, true
}
