package planverify

import (
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// Decode plans and repair plans are proven through row-space
// membership, not matrix comparison, because many distinct recovery
// expressions are simultaneously correct (any basis of H's equations
// works). A plan recovers faulty sector c as a linear functional
//
//	c = Σ_s v[s] · sector_s        (s over the sectors it reads)
//
// and that expression is correct on EVERY codeword — not just sampled
// ones — iff the residual e_c + Σ v[s]·e_s is a GF-linear combination
// of H's rows: each parity-check row vanishes on codewords, so any
// row-space member does, and conversely a functional vanishing on the
// whole code lies in the row space (the code is exactly ker H). The
// rank test below is that statement made executable.

const (
	objDecodePlan = "decode-plan"
	objUpdater    = "updater"
)

// inRowSpace reports whether the residual vector lies in the row space
// of h: rank(h) must not grow when the residual is appended.
func inRowSpace(h *matrix.Matrix, residual []uint32) bool {
	rows := make([][]uint32, 0, h.Rows()+1)
	for i := 0; i < h.Rows(); i++ {
		rows = append(rows, h.Row(i))
	}
	base := matrix.FromRows(h.Field(), rows).Rank()
	rows = append(rows, residual)
	return matrix.FromRows(h.Field(), rows).Rank() == base
}

// decodeState accumulates the recovery expressions a plan builds up
// stage by stage: expr[c] is non-nil once sector c has been recovered,
// holding its coefficient vector over the originally surviving sectors.
// read collects those surviving sectors the stages consume, and cost
// the mult_XORs their matrices perform.
type decodeState struct {
	object   string
	f        gf.Field
	h        *matrix.Matrix
	total    int
	faulty   map[int]bool
	expr     map[int][]uint32
	read     map[int]bool
	cost     int64
	findings []Finding
}

func (st *decodeState) reportf(pass string, op int, format string, args ...interface{}) {
	st.findings = append(st.findings, Finding{Object: st.object, Pass: pass, OpIndex: op,
		Message: fmt.Sprintf(format, args...)})
}

// walk is the one stage walk behind VerifyDecodePlan and
// VerifyRepairPlan. It proves p's stages in the order the executor runs
// them against scenario sc: the groups, which run concurrently and may
// not read each other's outputs, then H_rest, which may; the folded
// sequence of a folded plan (folded); or the single stage of a
// whole-matrix plan. Findings are labelled object, and each OpIndex is
// a stage index (groups in order, then rest or whole).
func walk(c codes.Code, sc codes.Scenario, p *core.Plan, object string) *decodeState {
	st := &decodeState{
		object: object,
		f:      c.Field(),
		h:      c.ParityCheck(),
		total:  codes.TotalSectors(c),
		faulty: sc.FaultySet(),
		expr:   make(map[int][]uint32),
		read:   make(map[int]bool),
	}
	if p.Whole != nil {
		if len(p.Groups) > 0 || p.Rest != nil {
			st.reportf("structure", -1, "plan mixes a whole-matrix stage with PPM stages")
		}
		st.subDecode(&p.Whole.SubDecode, 0, false)
		return st
	}
	if fd := p.Folded(); fd != nil {
		st.folded(p, fd)
		return st
	}
	for i := range p.Groups {
		st.subDecode(&p.Groups[i], i, false)
	}
	if p.Rest != nil {
		st.subDecode(p.Rest, len(p.Groups), true)
	}
	return st
}

// available resolves a survivor reference at one plan stage: originally
// surviving sectors are themselves; faulty sectors are usable only when
// an earlier stage recovered them and the stage is allowed to consume
// recovered outputs (the merging H_rest stage is, parallel groups are
// not — they run concurrently and must not read each other's outputs).
func (st *decodeState) available(s, op int, allowRecovered bool) []uint32 {
	if s < 0 || s >= st.total {
		st.reportf("bounds", op, "survivor column %d outside the %d-sector stripe", s, st.total)
		return make([]uint32, st.total)
	}
	if !st.faulty[s] {
		st.read[s] = true
		v := make([]uint32, st.total)
		v[s] = 1
		return v
	}
	if e := st.expr[s]; e != nil {
		if !allowRecovered {
			st.reportf("alias", op, "parallel group reads faulty sector %d, recovered only by a concurrent stage", s)
		}
		return e
	}
	st.reportf("alias", op, "stage reads faulty sector %d before any stage recovers it", s)
	return make([]uint32, st.total)
}

// effectiveMatrix returns the recovery matrix one stage applies under
// its sequence: G for MatrixFirst, the Finv*S product for Normal.
func effectiveMatrix(sd *core.SubDecode) *matrix.Matrix {
	if sd.Seq == kernel.MatrixFirst {
		return sd.G
	}
	if sd.Finv != nil && sd.S != nil {
		return sd.Finv.Mul(sd.S)
	}
	return nil
}

// subDecode verifies one matrix-decoding stage of a plan: its
// compiled lowering, its cost, and the recovery expression of every
// sector it writes. op indexes the stage for diagnostics.
func (st *decodeState) subDecode(sd *core.SubDecode, op int, allowRecovered bool) {
	if st.stage(sd, op, allowRecovered) {
		st.lowering(sd, op)
	}
}

// stage verifies a stage's cost and the recovery expression of every
// sector it writes, and reports whether the stage carries a matrix for
// its sequence; the caller proves what the stage compiled.
func (st *decodeState) stage(sd *core.SubDecode, op int, allowRecovered bool) bool {
	r := effectiveMatrix(sd)
	if r == nil {
		st.reportf("structure", op, "stage carries no matrix for sequence %v", sd.Seq)
		return false
	}
	st.cost += stageCost(sd)
	if sd.G != nil && sd.Finv != nil && sd.S != nil && !sd.G.Equal(sd.Finv.Mul(sd.S)) {
		// The two sequences must compute the same algebra; a divergent G
		// means the MatrixFirst and Normal paths decode differently.
		st.reportf("structure", op, "stage's G is not Finv * S: the two sequences disagree")
	}
	if r.Rows() != len(sd.FaultyCols) || r.Cols() != len(sd.SurvivorCols) {
		st.reportf("structure", op, "stage matrix is %dx%d for %d faulty and %d survivor columns",
			r.Rows(), r.Cols(), len(sd.FaultyCols), len(sd.SurvivorCols))
		return true
	}
	seen := make(map[int]bool, len(sd.SurvivorCols))
	exprs := make([][]uint32, len(sd.SurvivorCols))
	for j, s := range sd.SurvivorCols {
		if seen[s] {
			st.reportf("structure", op, "stage reads survivor column %d twice", s)
		}
		seen[s] = true
		exprs[j] = st.available(s, op, allowRecovered)
	}
	for i, c := range sd.FaultyCols {
		vec := make([]uint32, st.total)
		for j := range sd.SurvivorCols {
			st.addScaled(vec, r.At(i, j), exprs[j])
		}
		st.recover(c, vec, op)
	}
	return true
}

// addScaled adds a·e to the coefficient vector vec.
func (st *decodeState) addScaled(vec []uint32, a uint32, e []uint32) {
	if a == 0 {
		return
	}
	for t, v := range e {
		if v != 0 {
			vec[t] ^= st.f.Mul(a, v)
		}
	}
}

// recover records vec as stage op's recovery expression of sector c and
// proves it: c must be a faulty sector no earlier stage recovered, and
// vec must decode it on every codeword.
func (st *decodeState) recover(c int, vec []uint32, op int) {
	switch {
	case c < 0 || c >= st.total:
		st.reportf("bounds", op, "faulty column %d outside the %d-sector stripe", c, st.total)
		return
	case !st.faulty[c]:
		st.reportf("structure", op, "stage recovers sector %d, which is not faulty", c)
		return
	case st.expr[c] != nil:
		st.reportf("structure", op, "sector %d is recovered twice", c)
		return
	}
	st.expr[c] = vec
	residual := append([]uint32(nil), vec...)
	residual[c] ^= 1
	if !inRowSpace(st.h, residual) {
		st.reportf("symbolic", op,
			"sector %d's recovery expression does not lie in H's row space: it decodes wrongly on some codeword", c)
	}
}

// folded walks a folded plan in the order the executor runs it, with
// H_rest's syndrome rows as symbolic accumulators: the own columns
// start them before any group runs, each group (stage g) recovers its
// sectors and adds its syndrome rows from its own survivors, never
// reading another stage's output, and F_rest⁻¹ (stage p, after the
// groups) recovers H_rest's sectors from the finished syndrome. It
// proves every compiled matrix those stages apply, and the row modes
// of each group's one matrix (groupMatrix).
func (st *decodeState) folded(p *core.Plan, fd *core.Fold) {
	rest := len(p.Groups)
	if p.Rest == nil || len(fd.Groups) != len(p.Groups) {
		st.reportf("structure", rest, "fold has %d group shares for %d groups and H_rest %v",
			len(fd.Groups), len(p.Groups), p.Rest != nil)
		return
	}
	rows := p.Rest.S.Rows()
	acc := make([][]uint32, rows)
	for r := range acc {
		acc[r] = make([]uint32, st.total)
	}
	// accumulate adds m·(the expressions of cols) into the syndrome rows
	// listed in into. It reports false, and adds nothing, when m's shape
	// does not fit them.
	accumulate := func(name string, m *matrix.Matrix, cols, into []int, op int) bool {
		if m.Rows() != len(into) || m.Cols() != len(cols) {
			st.reportf("structure", op, "%s is %s for %d syndrome rows and %d columns", name, m.Dims(), len(into), len(cols))
			return false
		}
		st.cost += int64(m.NNZ())
		for j, c := range cols {
			e := st.available(c, op, false)
			for i, r := range into {
				if r < 0 || r >= rows {
					st.reportf("bounds", op, "%s adds to syndrome row %d of %d", name, r, rows)
					return false
				}
				st.addScaled(acc[r], m.At(i, j), e)
			}
		}
		return true
	}
	all := make([]int, rows)
	for r := range all {
		all[r] = r
	}
	if len(fd.OwnCols) > 0 && accumulate("S_own", fd.Own, fd.OwnCols, all, rest) {
		st.proveCompiled("S_own", fd.Own, fd.CompiledOwn(), rest)
	}
	for g := range p.Groups {
		sd, fg := &p.Groups[g], &fd.Groups[g]
		if !st.stage(sd, g, false) {
			continue
		}
		if fg.Syn == nil && len(fg.Rows) > 0 {
			st.reportf("structure", g, "group lists syndrome rows %v but no matrix", fg.Rows)
			continue
		}
		if fg.Syn == nil || accumulate("syndrome rows", fg.Syn, sd.SurvivorCols, fg.Rows, g) {
			st.groupMatrix(sd, fg, g)
		}
	}
	finv := p.Rest.Finv
	if finv.Rows() != len(p.Rest.FaultyCols) || finv.Cols() != rows {
		st.reportf("structure", rest, "F_rest^-1 is %s for %d faulty sectors and %d syndrome rows",
			finv.Dims(), len(p.Rest.FaultyCols), rows)
		return
	}
	cFinv, _, _ := p.Rest.Compiled()
	st.proveCompiled("F_rest^-1", finv, cFinv, rest)
	st.cost += int64(finv.NNZ())
	for i, c := range p.Rest.FaultyCols {
		vec := make([]uint32, st.total)
		for r := range acc {
			st.addScaled(vec, finv.At(i, r), acc[r])
		}
		st.recover(c, vec, rest)
	}
}

// groupMatrix proves the one matrix a folded group applies,
// FoldGroup.Compiled, equal to [G; Syn] (G alone without syndrome
// rows), and its row modes: exactly the syndrome rows accumulate. A G
// row that accumulated would add the group's sectors into whatever the
// stripe held there, which a decode into zeroed sectors hides; a
// syndrome row that overwrote would drop the syndrome added before it.
func (st *decodeState) groupMatrix(sd *core.SubDecode, fg *core.FoldGroup, op int) {
	if sd.Seq != kernel.MatrixFirst {
		st.reportf("structure", op, "folded group runs the %v sequence, want %v", sd.Seq, kernel.MatrixFirst)
		return
	}
	m := sd.G
	if fg.Syn != nil {
		if fg.Syn.Cols() != m.Cols() {
			st.reportf("structure", op, "syndrome rows are %s for a %s G", fg.Syn.Dims(), m.Dims())
			return
		}
		m = m.Stack(fg.Syn)
	}
	cm := fg.Compiled()
	st.proveCompiled("group matrix [G; syndrome rows]", m, cm, op)
	if cm != nil && cm.Accumulating() != len(fg.Rows) {
		st.reportf("structure", op, "group matrix accumulates its last %d rows, want its %d syndrome rows",
			cm.Accumulating(), len(fg.Rows))
	}
}

// lowering proves the compiled matrices the executor applies for the
// stage's sequence equal to the stage's matrices: their row blocks
// always, and their XOR program when one is attached (the forced or
// no-GFNI backend). With the row-space proof of those matrices, this
// covers the code that actually runs.
func (st *decodeState) lowering(sd *core.SubDecode, op int) {
	cFinv, cS, cG := sd.Compiled()
	type pair struct {
		name string
		m    *matrix.Matrix
		cm   *kernel.CompiledMatrix
	}
	pairs := []pair{{"G", sd.G, cG}}
	if sd.Seq == kernel.Normal {
		pairs = []pair{{"F^-1", sd.Finv, cFinv}, {"S", sd.S, cS}}
	}
	for _, pr := range pairs {
		if pr.m == nil || pr.cm == nil {
			st.reportf("structure", op, "stage has no compiled %s for the %v sequence", pr.name, sd.Seq)
			continue
		}
		st.proveCompiled(pr.name, pr.m, pr.cm, op)
	}
}

// proveCompiled proves a compiled matrix equal to m: its row blocks
// with their row modes, and its XOR programs when they are attached.
func (st *decodeState) proveCompiled(name string, m *matrix.Matrix, cm *kernel.CompiledMatrix, op int) {
	if cm == nil {
		st.reportf("structure", op, "stage has no compiled %s", name)
		return
	}
	fs := append(VerifyBlocks(st.f, m, cm), verifyPrograms(st.f, m, cm)...)
	for _, f := range fs {
		st.reportf(f.Pass, op, "compiled %s: %s", name, f)
	}
}

// verifyPrograms proves the XOR programs attached to a compiled matrix
// (none on the row-kernel backends): one over m's overwrite rows, and
// one over its accumulate rows when it has any, which must derive no
// row from another.
func verifyPrograms(f gf.Field, m *matrix.Matrix, cm *kernel.CompiledMatrix) []Finding {
	prog, accProg, acc := cm.XORProgram(), cm.AccumulateXORProgram(), cm.Accumulating()
	switch {
	case prog == nil && accProg == nil:
		return nil
	case prog == nil || (accProg != nil) != (acc > 0) || acc >= m.Rows():
		return []Finding{{Object: objXorProgram, Pass: "structure", OpIndex: -1,
			Message: fmt.Sprintf("overwrite program %v and accumulate program %v for a %d-row matrix whose last %d rows accumulate",
				prog != nil, accProg != nil, m.Rows(), acc)}}
	case accProg != nil && accProg.HasDerivative():
		return []Finding{{Object: objXorProgram, Pass: "alias", OpIndex: -1,
			Message: "accumulate program derives rows from other rows"}}
	case acc == 0:
		return VerifyProgram(f, m, prog)
	}
	over, under := m.SplitRows(m.Rows() - acc)
	return append(VerifyProgram(f, over, prog), VerifyProgram(f, under, accProg)...)
}

// stageCost recomputes one stage's mult_XORs from the matrices its
// sequence applies — the number Costs.Chosen and Stats.MultXORs
// accounting are built on.
func stageCost(sd *core.SubDecode) int64 {
	if sd.Seq == kernel.MatrixFirst {
		if sd.G != nil {
			return int64(sd.G.NNZ())
		}
		return 0
	}
	if sd.Finv != nil && sd.S != nil {
		return int64(sd.Finv.NNZ() + sd.S.NNZ())
	}
	return 0
}

// VerifyDecodePlan proves a built core plan: the stage walk (every
// stage's compiled lowering equals its matrices, every recovery
// expression is valid on every codeword, parallel groups never read
// each other's outputs), the stages together recover every faulty
// sector, and the plan's Chosen cost recomputes from the matrices it
// will actually apply.
func VerifyDecodePlan(c codes.Code, p *core.Plan) []Finding {
	st := walk(c, p.Scenario, p, objDecodePlan)
	for _, c := range p.Scenario.Faulty {
		if st.expr[c] == nil {
			st.reportf("structure", -1, "faulty sector %d is never recovered by any stage", c)
		}
	}
	if p.Costs.Chosen != st.cost {
		st.reportf("stats", -1, "plan predicts %d mult_XORs, its matrices perform %d", p.Costs.Chosen, st.cost)
	}
	return st.findings
}

// VerifyUpdater proves the delta-parity updater: patching data sector j
// by δ applies parity_p ^= Coeff·δ for each term, so the stripe's
// change vector is e_j + Σ Coeff·e_p, and the stripe stays a codeword
// for every δ iff H times that vector is zero.
func VerifyUpdater(c codes.Code, u *core.Updater) []Finding {
	var fs []Finding
	report := func(pass string, format string, args ...interface{}) {
		fs = append(fs, Finding{Object: objUpdater, Pass: pass, OpIndex: -1,
			Message: fmt.Sprintf(format, args...)})
	}
	h := c.ParityCheck()
	total := codes.TotalSectors(c)
	parity := make(map[int]bool, len(c.ParityPositions()))
	for _, p := range c.ParityPositions() {
		parity[p] = true
	}

	data := u.DataSectors()
	covered := make(map[int]bool, len(data))
	for _, j := range data {
		covered[j] = true
	}
	for _, j := range codes.DataPositions(c) {
		if !covered[j] {
			report("structure", "data sector %d has no delta-update column", j)
		}
	}

	for _, j := range data {
		if j < 0 || j >= total || parity[j] {
			report("bounds", "updater treats sector %d as data", j)
			continue
		}
		terms, err := u.Terms(j)
		if err != nil {
			report("structure", "terms for data sector %d: %v", j, err)
			continue
		}
		if nnz, err := u.UpdateCost(j); err != nil || nnz != len(terms) {
			report("stats", "data sector %d reports update cost %d for %d terms", j, nnz, len(terms))
		}
		change := make([]uint32, total)
		change[j] = 1
		seen := make(map[int]bool, len(terms))
		for _, t := range terms {
			switch {
			case t.Parity < 0 || t.Parity >= total:
				report("bounds", "data sector %d patches sector %d outside the stripe", j, t.Parity)
			case !parity[t.Parity]:
				report("structure", "data sector %d patches sector %d, which is not parity", j, t.Parity)
			case seen[t.Parity]:
				report("structure", "data sector %d patches parity %d twice", j, t.Parity)
			case t.Coeff == 0:
				report("structure", "data sector %d carries a zero-coefficient patch of parity %d", j, t.Parity)
			default:
				seen[t.Parity] = true
				change[t.Parity] ^= t.Coeff
			}
		}
		for i, hv := range h.MulVec(change) {
			if hv != 0 {
				report("symbolic",
					"updating data sector %d breaks parity-check row %d: the patched stripe is not a codeword", j, i)
				break
			}
		}
	}
	return fs
}
