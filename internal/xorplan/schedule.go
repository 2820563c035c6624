package xorplan

import "fmt"

// Derivative scheduling (Plank's schedule-optimisation line of work,
// e.g. CSHR): instead of computing every output row as a fresh XOR of
// its sources, compute it as a delta from an already-computed output
// row when their source sets overlap heavily — the XOR count drops
// from |S_v| to |S_u Δ S_v| + 1. The greedy construction below is a
// directed MST over the output rows (Prim's algorithm with the "from
// scratch" cost as the virtual root edge).
//
// Before the MST runs, a common-subexpression pass hunts for source
// *pairs* shared by three or more output rows and hoists each into a
// temporary region (Huang/Li-style XOR CSE): a pair appearing in k rows
// costs 2k XORs inline but 2 + k through a temp, so every extraction
// with k >= 3 saves k - 2 region XORs, and extracted temps can
// themselves pair up in later rounds. scheduleSets builds both programs
// and keeps the cheaper, so adding CSE can never regress a schedule.
//
// The scheduler is generic over "source sets": a source id below
// InCount names an input, ids at InCount and above name CSE temps, and
// nothing in the construction cares what the sources are. Compile
// feeds it the polynomial-ring derived sources x^k ⊗ in[j].

// setOp is one output step of a scheduled XOR program: compute row Dst
// as the XOR of the Srcs, starting from a copy of previously computed
// row From (or from nothing when From is -1).
type setOp struct {
	Dst  int
	From int
	// Srcs are the source ids XORed into the destination: inputs below
	// InCount, CSE temps at InCount and above.
	Srcs []int
}

// setSchedule is an optimised XOR program over abstract source sets:
// first the Temps are materialised in order (each the XOR of two
// earlier sources), then the Ops run in order. scheduleSets produces
// it and lower turns it into a Program.
type setSchedule struct {
	// Rows is the output row count the program computes.
	Rows int
	// InCount is the number of input sources; ids >= InCount are temps.
	InCount int
	// Temps[k] defines temporary (InCount + k) as the XOR of two earlier
	// sources (inputs or lower-numbered temps).
	Temps [][2]int
	Ops   []setOp
	// XORCount is the region-XOR cost metric of one run: 2 per temp
	// (copy + XOR), |Srcs| per op, +1 per derivative op for the copy.
	XORCount int
}

// maxCSESourceTotal bounds the CSE pass: bestPair is O(Σ|set|²) per
// round, so past this total source count the pass is skipped and plain
// Prim used — correctness never depends on CSE, only the XOR count.
const maxCSESourceTotal = 1 << 14

// scheduleSets builds the optimised XOR program for the given row
// sets: the better of plain Prim and CSE-then-Prim. Every set must be
// sorted ascending with ids in [0, inCount).
func scheduleSets(rowSets [][]int, inCount int) *setSchedule {
	plain := primSets(rowSets, nil, inCount)
	if cse := cseSets(rowSets, inCount); cse != nil && cse.XORCount < plain.XORCount {
		return cse
	}
	return plain
}

// cseSets extracts shared input pairs into temps, then schedules the
// rewritten rows. Returns nil when no pair clears the profitability bar
// or the sets are too large for the quadratic pair scan.
func cseSets(rowSets [][]int, inCount int) *setSchedule {
	total := 0
	for _, s := range rowSets {
		total += len(s)
	}
	if total > maxCSESourceTotal {
		return nil
	}
	// Deep-copy the row sets: extraction rewrites them in place, and the
	// caller's sets must stay untouched for the plain-Prim arm.
	sets := make([][]int, len(rowSets))
	for i, s := range rowSets {
		sets[i] = append([]int(nil), s...)
	}
	var temps [][2]int
	// maxTemps bounds the greedy loop; each extraction shrinks the total
	// set size by >= 1, so this is belt and braces, not a real limit.
	maxTemps := total
	for len(temps) < maxTemps {
		a, b, freq := bestPair(sets)
		// 2 XORs build the temp, each use saves 1: profitable iff freq >= 3.
		if freq < 3 {
			break
		}
		id := inCount + len(temps)
		temps = append(temps, [2]int{a, b})
		for i, s := range sets {
			if containsBoth(s, a, b) {
				sets[i] = substitutePair(s, a, b, id)
			}
		}
	}
	if len(temps) == 0 {
		return nil
	}
	return primSets(sets, temps, inCount)
}

// bestPair scans every row's source set for the pair occurring in the
// most rows. O(Σ|set|²) over sets that shrink as extraction proceeds —
// fine at the scale maxCSESourceTotal admits.
func bestPair(sets [][]int) (a, b, freq int) {
	counts := make(map[[2]int]int)
	for _, s := range sets {
		for i := 0; i < len(s); i++ {
			for j := i + 1; j < len(s); j++ {
				counts[[2]int{s[i], s[j]}]++
			}
		}
	}
	best := [2]int{-1, -1}
	for p, c := range counts {
		// Deterministic tie-break on the pair itself so schedules are
		// reproducible run to run.
		if c > freq || (c == freq && (p[0] < best[0] || (p[0] == best[0] && p[1] < best[1]))) {
			best, freq = p, c
		}
	}
	return best[0], best[1], freq
}

// containsBoth reports whether the sorted set holds both ids.
func containsBoth(s []int, a, b int) bool {
	na, nb := false, false
	for _, x := range s {
		if x == a {
			na = true
		} else if x == b {
			nb = true
		}
	}
	return na && nb
}

// substitutePair removes a and b from the sorted set and inserts id,
// keeping the set sorted.
func substitutePair(s []int, a, b, id int) []int {
	out := s[:0]
	for _, x := range s {
		if x != a && x != b {
			out = append(out, x)
		}
	}
	i := len(out)
	out = append(out, id)
	for i > 0 && out[i-1] > id {
		out[i], out[i-1] = out[i-1], out[i]
		i--
	}
	return out
}

// primSets runs the derivative-MST construction over the given row sets
// (which may reference temps) and assembles the program. Each temp
// costs 2 XORs (a copy plus an XOR) on top of the MST's own count.
func primSets(rowSets [][]int, temps [][2]int, inCount int) *setSchedule {
	n := len(rowSets)
	p := &setSchedule{
		Rows:     n,
		InCount:  inCount,
		Temps:    temps,
		XORCount: 2 * len(temps),
	}
	sets := rowSets

	// Prim over dense costs. cost(u->v) = |S_u Δ S_v| + 1 (the +1 is
	// the initial copy/XOR of u into v); root cost = |S_v|.
	const root = -1
	inTree := make([]bool, n)
	bestCost := make([]int, n)
	bestFrom := make([]int, n)
	for v := range bestCost {
		bestCost[v] = len(sets[v])
		bestFrom[v] = root
	}
	for range sets {
		// Pick the cheapest unattached row.
		v := -1
		for u := range sets {
			if !inTree[u] && (v < 0 || bestCost[u] < bestCost[v]) {
				v = u
			}
		}
		if v < 0 {
			break
		}
		inTree[v] = true
		// symmetricDiff merges two sorted lists, so delta is sorted and
		// freshly allocated.
		delta := symmetricDiff(sets[v], parentSet(sets, bestFrom[v]))
		p.Ops = append(p.Ops, setOp{Dst: v, From: bestFrom[v], Srcs: delta})
		p.XORCount += len(delta)
		if bestFrom[v] >= 0 {
			p.XORCount++ // the copy of the parent output
		}
		// Relax neighbours.
		for u := range sets {
			if inTree[u] {
				continue
			}
			if c := diffSize(sets[u], sets[v]) + 1; c < bestCost[u] {
				bestCost[u] = c
				bestFrom[u] = v
			}
		}
	}
	return p
}

// withoutDerivatives rewrites every derivative op to compute its row
// from scratch, S_v = delta Δ S_parent, in place of the copy of its
// parent row, so the program can accumulate into its outputs.
func (p *setSchedule) withoutDerivatives() {
	full := make([][]int, p.Rows) // each written row's source set
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.From >= 0 {
			srcs := symmetricDiff(op.Srcs, full[op.From])
			p.XORCount += len(srcs) - len(op.Srcs) - 1
			op.Srcs, op.From = srcs, -1
		}
		full[op.Dst] = op.Srcs
	}
}

func parentSet(sets [][]int, from int) []int {
	if from < 0 {
		return nil
	}
	return sets[from]
}

// symmetricDiff of two sorted int slices; the result is sorted.
func symmetricDiff(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func diffSize(a, b []int) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			n++
			i++
		default:
			n++
			j++
		}
	}
	return n + (len(a) - i) + (len(b) - j)
}

// validate checks the program before lower assigns arena slots: every
// temp may reference only inputs and *earlier* temps (a temp
// referencing a later temp would read an unwritten — or, with a pooled
// arena, stale — region), every op source must be inside the input +
// temp id space, every derivative parent must be a previously written
// row, and every row must be written exactly once.
func (p *setSchedule) validate() error {
	if p.InCount < 0 || p.Rows < 0 {
		return fmt.Errorf("xorplan: schedule has negative shape (%d rows, %d inputs)", p.Rows, p.InCount)
	}
	for t, def := range p.Temps {
		for _, s := range def {
			if s < 0 || s >= p.InCount+t {
				return fmt.Errorf("xorplan: schedule temp %d references source %d, outside the %d inputs and %d earlier temps", t, s, p.InCount, t)
			}
		}
	}
	limit := p.InCount + len(p.Temps)
	written := make([]bool, p.Rows)
	for oi, op := range p.Ops {
		if op.Dst < 0 || op.Dst >= p.Rows {
			return fmt.Errorf("xorplan: schedule op %d writes row %d of %d", oi, op.Dst, p.Rows)
		}
		if written[op.Dst] {
			return fmt.Errorf("xorplan: schedule op %d writes row %d twice", oi, op.Dst)
		}
		if op.From != -1 {
			if op.From < 0 || op.From >= p.Rows {
				return fmt.Errorf("xorplan: schedule op %d derives from row %d of %d", oi, op.From, p.Rows)
			}
			if !written[op.From] {
				return fmt.Errorf("xorplan: schedule op %d derives from row %d before it is written", oi, op.From)
			}
		}
		for _, s := range op.Srcs {
			if s < 0 || s >= limit {
				return fmt.Errorf("xorplan: schedule op %d references source %d, outside the %d inputs and %d temps", oi, s, p.InCount, len(p.Temps))
			}
		}
		written[op.Dst] = true
	}
	for r, w := range written {
		if !w {
			return fmt.Errorf("xorplan: schedule row %d is never written", r)
		}
	}
	return nil
}
