package xorplan

import (
	"math/rand"
	"strings"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// evalSets runs a set schedule symbolically: input i is bit i of a
// mask, temps and rows XOR masks, so each row ends as the mask of the
// inputs it sums. The schedule must have at most 64 inputs.
func evalSets(p *setSchedule) []uint64 {
	src := make([]uint64, p.InCount+len(p.Temps))
	for i := 0; i < p.InCount; i++ {
		src[i] = 1 << uint(i)
	}
	for k, def := range p.Temps {
		src[p.InCount+k] = src[def[0]] ^ src[def[1]]
	}
	rows := make([]uint64, p.Rows)
	for _, op := range p.Ops {
		var v uint64
		if op.From >= 0 {
			v = rows[op.From]
		}
		for _, s := range op.Srcs {
			v ^= src[s]
		}
		rows[op.Dst] = v
	}
	return rows
}

func setMask(set []int) uint64 {
	var m uint64
	for _, id := range set {
		m |= 1 << uint(id)
	}
	return m
}

// matrixSets expands m the way Compile does: row i's set holds source
// j*w+k for every set bit k of coefficient (i, j). It also returns the
// flat XOR count, the total number of set bits.
func matrixSets(w int, m *matrix.Matrix) (sets [][]int, ones int) {
	sets = make([][]int, m.Rows())
	for i := range sets {
		for j := 0; j < m.Cols(); j++ {
			a := m.At(i, j)
			for k := 0; k < w; k++ {
				if a>>uint(k)&1 == 1 {
					sets[i] = append(sets[i], j*w+k)
					ones++
				}
			}
		}
	}
	return sets, ones
}

// checkComputes fails t unless sched computes exactly sets.
func checkComputes(t *testing.T, trial int, sched *setSchedule, sets [][]int) {
	t.Helper()
	got := evalSets(sched)
	for i, set := range sets {
		if got[i] != setMask(set) {
			t.Fatalf("trial %d: row %d computes %#x, want %#x (temps=%d)", trial, i, got[i], setMask(set), len(sched.Temps))
		}
	}
}

// TestScheduleEquivalence: on random GF(2^8) matrices the schedule
// computes exactly each row's source set, as the flat sum would.
func TestScheduleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 10; trial++ {
		m := randMatrix(rng, gf.GF8, 1+rng.Intn(3), 1+rng.Intn(6))
		sets, _ := matrixSets(8, m)
		checkComputes(t, trial, scheduleSets(sets, m.Cols()*8), sets)
	}
}

// TestScheduleDenseRandomNeverWorse: the root edge of the MST is the
// from-scratch cost and a derivative is taken only when it wins, so on
// random dense matrices neither plain Prim nor the full schedule may
// exceed the flat count, and the schedule may not exceed plain Prim.
func TestScheduleDenseRandomNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(192))
	for trial := 0; trial < 20; trial++ {
		m := randMatrix(rng, gf.GF8, 2+rng.Intn(3), 2+rng.Intn(5))
		sets, ones := matrixSets(8, m)
		sched := scheduleSets(sets, m.Cols()*8)
		plain := primSets(sets, nil, m.Cols()*8)
		if sched.XORCount > plain.XORCount || plain.XORCount > ones {
			t.Fatalf("trial %d: schedule %d XORs, plain MST %d, flat %d", trial, sched.XORCount, plain.XORCount, ones)
		}
	}
}

// TestScheduleCSEEquivalenceExpanded: matrices drawn from a small
// coefficient palette make the same source pairs recur across rows, so
// CSE fires; its schedules must still compute the right rows and never
// cost more than plain Prim.
func TestScheduleCSEEquivalenceExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(195))
	cses := 0
	for trial := 0; trial < 20; trial++ {
		// 4 rows of at most 7 columns keep the sets within evalSets' 64
		// inputs; a pair must recur in 3 rows before CSE pays.
		rows, cols := 4, 4+rng.Intn(4)
		palette := []uint32{3, 7}
		for len(palette) < 8 {
			palette = append(palette, uint32(2+rng.Intn(250)))
		}
		m := matrix.New(gf.GF8, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, palette[rng.Intn(len(palette))])
			}
		}
		sets, _ := matrixSets(8, m)
		sched := scheduleSets(sets, cols*8)
		if plain := primSets(sets, nil, cols*8); sched.XORCount > plain.XORCount {
			t.Fatalf("trial %d: schedule %d XORs worse than plain MST %d", trial, sched.XORCount, plain.XORCount)
		}
		checkComputes(t, trial, sched, sets)
		if len(sched.Temps) > 0 {
			cses++
		}
	}
	if cses == 0 {
		t.Fatal("no trial exercised the CSE pass")
	}
}

// TestOptimizedSchedulesValidate pins that every schedule the real
// construction emits passes its own validation, in every field width —
// Compile's check must never fire on legitimate programs.
func TestOptimizedSchedulesValidate(t *testing.T) {
	for _, f := range testFields {
		m := matrix.New(f, 3, 5)
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				m.Set(i, j, uint32(1+(i+j)%6))
			}
		}
		sets, _ := matrixSets(f.W(), m)
		if err := scheduleSets(sets, 5*f.W()).validate(); err != nil {
			t.Errorf("gf%d: optimized schedule fails validation: %v", f.W(), err)
		}
	}
}

// TestScheduleSavesXORs: identical rows make the second a pure copy of
// the first, so the schedule must beat the flat count.
func TestScheduleSavesXORs(t *testing.T) {
	row := []int{0, 2, 3, 5, 7, 9, 12}
	sets := [][]int{row, append([]int(nil), row...)}
	sched := scheduleSets(sets, 16)
	if flat := 2 * len(row); sched.XORCount >= flat {
		t.Fatalf("schedule XORs %d not below flat %d", sched.XORCount, flat)
	}
}

// TestScheduleCSEExtractsSharedPairs: rows sharing an input pair must
// hoist it into a temp, beat the plain MST count, and still compute
// the right rows.
func TestScheduleCSEExtractsSharedPairs(t *testing.T) {
	// 6 inputs, 5 outputs; pair {0,1} appears in every row, plus a
	// distinct extra input per row — plain Prim gains nothing (each pair
	// of rows differs in 2 inputs, same as from-scratch cost 3), while
	// CSE pays 2 XORs for t=in0^in1 and then each row is t^extra.
	sets := [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}, {0, 1, 2}}
	plain := primSets(sets, nil, 6)
	sched := scheduleSets(sets, 6)
	if len(sched.Temps) == 0 {
		t.Fatal("CSE extracted no temps from a 5-way shared pair")
	}
	if sched.XORCount >= plain.XORCount {
		t.Fatalf("CSE schedule %d XORs, plain MST %d", sched.XORCount, plain.XORCount)
	}
	got := evalSets(sched)
	for i, set := range sets {
		if got[i] != setMask(set) {
			t.Fatalf("row %d differs under CSE schedule", i)
		}
	}
}

// TestValidateCatchesForwardTempReference is the regression test for
// the unchecked-temp-id executor bug: a schedule whose CSE round emits
// a temp referencing a *later* temp would read that temp before it is
// written (stale memory with a pooled arena). validate must reject it.
func TestValidateCatchesForwardTempReference(t *testing.T) {
	// 1 output row = temp1 over 4 inputs, where temp0 references temp1.
	prog := &setSchedule{
		Rows:    1,
		InCount: 4,
		Temps: [][2]int{
			{5, 0}, // temp0 := temp1 ^ in0 — temp1 (id 5) is defined later
			{1, 2}, // temp1 := in1 ^ in2
		},
		Ops:      []setOp{{Dst: 0, From: -1, Srcs: []int{4}}},
		XORCount: 5,
	}
	err := prog.validate()
	if err == nil {
		t.Fatal("validate accepted a temp referencing a later temp")
	}
	if !strings.Contains(err.Error(), "temp 0") {
		t.Fatalf("error does not name the offending temp: %v", err)
	}
}

// TestValidateRejectsMalformedPrograms sweeps the remaining corruption
// classes one by one; each must be caught before lowering.
func TestValidateRejectsMalformedPrograms(t *testing.T) {
	base := func() *setSchedule {
		return &setSchedule{
			Rows:    2,
			InCount: 3,
			Temps:   [][2]int{{0, 1}},
			Ops: []setOp{
				{Dst: 0, From: -1, Srcs: []int{3, 2}},
				{Dst: 1, From: 0, Srcs: []int{2}},
			},
		}
	}
	if err := base().validate(); err != nil {
		t.Fatalf("baseline program invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*setSchedule)
	}{
		{"temp id out of range", func(p *setSchedule) { p.Temps[0][1] = 99 }},
		{"negative temp source", func(p *setSchedule) { p.Temps[0][0] = -1 }},
		{"op source beyond temp arena", func(p *setSchedule) { p.Ops[0].Srcs[0] = 4 }},
		{"negative op source", func(p *setSchedule) { p.Ops[1].Srcs[0] = -2 }},
		{"dst out of range", func(p *setSchedule) { p.Ops[1].Dst = 2 }},
		{"row written twice", func(p *setSchedule) { p.Ops[1].Dst = 0 }},
		{"derive from unwritten row", func(p *setSchedule) { p.Ops[0].From = 1 }},
		{"derive from out-of-range row", func(p *setSchedule) { p.Ops[1].From = 7 }},
	}
	for _, tc := range cases {
		p := base()
		tc.mutate(p)
		if err := p.validate(); err == nil {
			t.Errorf("%s: validate accepted the corrupt program", tc.name)
		}
	}
}
