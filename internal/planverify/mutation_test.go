package planverify

import (
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/gf"
	"ppm/internal/matrix"
	"ppm/internal/xorplan"
)

// The mutation harness measures the verifier's detection power: corrupt
// one op of a proven program, decide independently (by running both the
// mutant and the matrix on random words) whether the corruption changed
// semantics, and demand the verifier reject every semantically-changed
// mutant. The concrete interpreter is the ground truth here precisely
// so the verifier is never asked to grade its own homework.

// copyView deep-copies a program view so mutators can edit freely.
func copyView(v xorplan.View) xorplan.View {
	out := v
	out.Instrs = append([]xorplan.ViewInstr(nil), v.Instrs...)
	out.Outs = make([]xorplan.ViewOut, len(v.Outs))
	for i, o := range v.Outs {
		out.Outs[i] = o
		out.Outs[i].Srcs = append([]int32(nil), o.Srcs...)
	}
	return out
}

// randRef picks a random reference: an arena slot or an input column.
func randRef(rng *rand.Rand, v *xorplan.View) int32 {
	if v.Slots > 0 && rng.Intn(2) == 0 {
		return int32(rng.Intn(v.Slots))
	}
	return ^int32(rng.Intn(v.Cols))
}

// mutators corrupt one op of a view copy. Each returns false when the
// view has no op it applies to, or the edit happened to be an identity.
var mutators = []struct {
	name string
	fn   func(rng *rand.Rand, v *xorplan.View) bool
}{
	{"swap-operand", func(rng *rand.Rand, v *xorplan.View) bool {
		if len(v.Instrs) == 0 {
			return false
		}
		i := rng.Intn(len(v.Instrs))
		old := v.Instrs[i].A
		v.Instrs[i].A = randRef(rng, v)
		return v.Instrs[i].A != old
	}},
	{"drop-xor-src", func(rng *rand.Rand, v *xorplan.View) bool {
		var cands []int
		for i, o := range v.Outs {
			if len(o.Srcs) > 0 {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return false
		}
		i := cands[rng.Intn(len(cands))]
		j := rng.Intn(len(v.Outs[i].Srcs))
		v.Outs[i].Srcs = append(v.Outs[i].Srcs[:j], v.Outs[i].Srcs[j+1:]...)
		return true
	}},
	{"slot-off-by-one", func(rng *rand.Rand, v *xorplan.View) bool {
		if len(v.Instrs) == 0 || v.Slots < 2 {
			return false
		}
		i := rng.Intn(len(v.Instrs))
		v.Instrs[i].Dst = (v.Instrs[i].Dst + 1) % int32(v.Slots)
		return true
	}},
	{"read-off-by-one", func(rng *rand.Rand, v *xorplan.View) bool {
		if v.Slots < 2 {
			return false
		}
		var cands []int
		for i, o := range v.Outs {
			for _, s := range o.Srcs {
				if s >= 0 {
					cands = append(cands, i)
					break
				}
			}
		}
		if len(cands) == 0 {
			return false
		}
		i := cands[rng.Intn(len(cands))]
		for j, s := range v.Outs[i].Srcs {
			if s >= 0 {
				v.Outs[i].Srcs[j] = (s + 1) % int32(v.Slots)
				return true
			}
		}
		return false
	}},
	{"kind-toggle", func(rng *rand.Rand, v *xorplan.View) bool {
		if len(v.Instrs) == 0 {
			return false
		}
		i := rng.Intn(len(v.Instrs))
		if v.Instrs[i].Xtimes {
			v.Instrs[i].Xtimes = false
			v.Instrs[i].B = v.Instrs[i].A // x·a becomes a^a = 0
		} else {
			v.Instrs[i].Xtimes = true
		}
		return true
	}},
	{"derive-change", func(rng *rand.Rand, v *xorplan.View) bool {
		if len(v.Outs) == 0 {
			return false
		}
		i := rng.Intn(len(v.Outs))
		if v.Outs[i].From >= 0 {
			v.Outs[i].From = -1
			return true
		}
		if int32(i) == v.Outs[0].Dst || len(v.Outs) < 2 {
			return false
		}
		v.Outs[i].From = v.Outs[0].Dst
		return true
	}},
	{"drop-instr", func(rng *rand.Rand, v *xorplan.View) bool {
		if len(v.Instrs) == 0 {
			return false
		}
		i := rng.Intn(len(v.Instrs))
		v.Instrs = append(v.Instrs[:i], v.Instrs[i+1:]...)
		return true
	}},
}

// semanticallyChanged runs the mutant and the matrix oracle on random
// word vectors; a divergence (or a mutant too malformed to run) means
// the mutation changed program semantics.
func semanticallyChanged(f gf.Field, m *matrix.Matrix, v *xorplan.View, rng *rand.Rand) bool {
	mask := uint32(1)<<uint(f.W()) - 1
	for trial := 0; trial < 8; trial++ {
		in := make([]uint32, m.Cols())
		for j := range in {
			in[j] = rng.Uint32() & mask
		}
		got, ok := interpretView(f, v, in)
		if !ok {
			return true
		}
		for i := 0; i < m.Rows(); i++ {
			var want uint32
			for j := 0; j < m.Cols(); j++ {
				want ^= f.Mul(m.At(i, j), in[j])
			}
			if got[i] != want {
				return true
			}
		}
	}
	return false
}

// mutationMatrices collects a representative program population: every
// matrix of one SD decode plan plus dense random matrices per field.
func mutationMatrices(t *testing.T) []*matrix.Matrix {
	t.Helper()
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := codes.NewScenario(c, []int{1, 8, 14, 20})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(c, sc, core.StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*matrix.Matrix
	for _, h := range planMatrices(plan) {
		ms = append(ms, h.m)
	}
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{8, 16} {
		f, err := gf.ForWord(w)
		if err != nil {
			t.Fatal(err)
		}
		m := matrix.New(f, 4, 6)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, rng.Uint32()&(1<<uint(w)-1))
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// TestMutationKillRate is the verifier's teeth: across every mutator
// and program, at least 95% of semantically-changed single-op mutants
// must be rejected. The symbolic domain is exact, so the expected rate
// is 100% — the bar leaves slack only for future mutator additions.
func TestMutationKillRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type tally struct{ changed, killed, neutral int }
	table := make(map[string]*tally)
	totalChanged, totalKilled := 0, 0

	for _, m := range mutationMatrices(t) {
		f := m.Field()
		prog, err := xorplan.Compile(f, m)
		if err != nil {
			t.Fatalf("compiling %s: %v", m.Dims(), err)
		}
		orig := prog.View()
		if fs := VerifyProgramView(f, m, &orig); len(fs) != 0 {
			t.Fatalf("pristine program rejected: %v", fs)
		}
		for _, mut := range mutators {
			tl := table[mut.name]
			if tl == nil {
				tl = &tally{}
				table[mut.name] = tl
			}
			for attempt := 0; attempt < 25; attempt++ {
				v := copyView(orig)
				if !mut.fn(rng, &v) {
					continue
				}
				if !semanticallyChanged(f, m, &v, rng) {
					tl.neutral++
					continue
				}
				tl.changed++
				totalChanged++
				if len(VerifyProgramView(f, m, &v)) > 0 {
					tl.killed++
					totalKilled++
				}
			}
		}
	}

	for name, tl := range table {
		t.Logf("mutator %-16s changed=%3d killed=%3d neutral=%3d", name, tl.changed, tl.killed, tl.neutral)
		if tl.changed > 0 && tl.killed < tl.changed {
			t.Errorf("mutator %s: %d/%d semantically-changed mutants survived verification",
				name, tl.changed-tl.killed, tl.changed)
		}
	}
	if totalChanged == 0 {
		t.Fatal("no semantically-changed mutants generated")
	}
	if rate := float64(totalKilled) / float64(totalChanged); rate < 0.95 {
		t.Fatalf("mutation kill rate %.3f below 0.95 (%d/%d)", rate, totalKilled, totalChanged)
	} else {
		t.Logf("mutation kill rate %.3f (%d/%d)", rate, totalKilled, totalChanged)
	}
}

// TestMutantDiagnosisPinpointsOp spot-checks the diagnostic contract:
// a corrupted op is reported with a usable op index, not just "wrong".
func TestMutantDiagnosisPinpointsOp(t *testing.T) {
	f, err := gf.ForWord(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	m := matrix.New(f, 3, 5)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			m.Set(i, j, rng.Uint32()&0xff)
		}
	}
	prog, err := xorplan.Compile(f, m)
	if err != nil {
		t.Fatal(err)
	}
	v := prog.View()
	if len(v.Outs) == 0 || len(v.Outs[0].Srcs) == 0 {
		t.Skip("program shape too degenerate to corrupt an out op")
	}
	v.Outs[0].Srcs = v.Outs[0].Srcs[:len(v.Outs[0].Srcs)-1]
	fs := VerifyProgramView(f, m, &v)
	if len(fs) == 0 {
		t.Fatal("dropped XOR source went unreported")
	}
	found := false
	for _, fd := range fs {
		if fd.OpIndex >= 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no finding carries an op index: %v", fs)
	}
	t.Logf("diagnosis: %s", fs[0])
}
