package core

import (
	"fmt"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/stripe"
)

// Folding H_rest's syndrome into the groups: the C5 plan.
//
// H_rest recovers its faulty sectors as F_rest⁻¹·y, where the syndrome
// y = S_rest·b runs over H_rest's survivors, which include every sector
// the groups recover. In the C4 plan H_rest runs alone after the groups
// and reads every survivor a second time. Once group g has recovered
// b_f = G_g·b_s over its survivors s, H_rest's terms over the group's
// columns are
//
//	S_rest[:, s]·b_s + S_rest[:, f]·b_f = (S_rest[:, s] + S_rest[:, f]·G_g)·b_s
//
// so the group adds its rows of y in the pass that already has its
// survivors in cache: partial decoding, each locality folding its
// survivors into its share of the merge. H_rest keeps only the columns
// no group reads and F_rest⁻¹. Every S_rest column goes to at most one
// group, so the syndrome rows add up to y exactly and the plan costs
//
//	C5 = Σ nnz(G_g) + Σ nnz(syn_g) + nnz(S_own) + nnz(F_rest⁻¹).
//
// C5 is not always below C4. For the sectors a group recovers C4 pays
// nnz(S_rest[:, f]), while C5 pays nnz(S_rest[:, f]·G_g), spread over
// the group's survivors: up to |s_g| times as many. C5 <= C4 holds when
// every syndrome row that reads a group's recovered sectors also reads
// all of the group's survivors and no earlier group claimed any of
// them, for the group's syndrome rows then cost no more than the S_rest
// columns they replace. The dense global rows of the SD, PMDS and LRC
// worst cases are such. StrategyAuto takes the fold only when C5 is
// strictly the cheapest; StrategyPPMFolded runs it whatever it costs.

// Fold is the folded lowering of a PPM plan's H_rest. The plan's Groups
// and Rest stay the C4 sub-decodes, which Describe and the symbolic
// verifier's stage walk read. The executor applies neither a group's G
// nor S_rest: each group runs [G_g; Syn_g] compiled as one matrix, the
// G rows overwriting the group's sectors and the syndrome rows adding
// into the syndrome, in one pass over the group's survivors. Of H_rest
// it compiles only F_rest⁻¹: the own columns replace S_rest.
type Fold struct {
	// Groups[g] is group g's share of H_rest's syndrome.
	Groups []FoldGroup
	// OwnCols are the survivor columns of H_rest that no group folds, and
	// Own is S_rest over them: every syndrome row, one column per entry
	// of OwnCols.
	OwnCols []int
	Own     *matrix.Matrix

	rows int                    // syndrome rows: S_rest's row count
	ops  int64                  // Σ nnz(syn_g) + nnz(S_own)
	cOwn *kernel.CompiledMatrix // nil when OwnCols is empty
	// slots is the executor's view layout, one entry per view a tile
	// hands the kernels: a sector index, or -1-r for syndrome row r. The
	// syndrome rows come first, then the own columns, then H_rest's
	// faulty sectors, then each group's views (FoldGroup.at).
	slots []int
}

// FoldGroup is one group's rows of H_rest's syndrome.
type FoldGroup struct {
	// Rows are the syndrome rows (rows of Plan.Rest.S) the group adds to.
	Rows []int
	// Syn is S_rest[Rows, s_g] + S_rest[Rows, f_g]·G_g over the group's
	// SurvivorCols s_g; nil when the group adds to no syndrome row.
	Syn *matrix.Matrix

	c *kernel.CompiledMatrix
	// at is where the group's views start in Fold.slots: its survivors,
	// then its faulty sectors, then its syndrome Rows.
	at int
}

// Compiled returns the one matrix the executor applies for the group:
// [G_g; Syn] over its survivors (G_g alone when Syn is nil), compiled
// with the len(Rows) syndrome rows accumulating, so G_g's rows
// overwrite the group's faulty sectors and the syndrome rows add into
// the syndrome.
func (fg *FoldGroup) Compiled() *kernel.CompiledMatrix { return fg.c }

// CompiledOwn returns the compiled Own the executor starts the syndrome
// with, nil when no column is H_rest's own.
func (fd *Fold) CompiledOwn() *kernel.CompiledMatrix { return fd.cOwn }

// Folded returns the plan's folded lowering, nil unless the plan runs
// the C5 sequence.
func (p *Plan) Folded() *Fold { return p.fold }

// buildFold computes the fold of a PPM plan with an H_rest from the
// matrices BuildPlan already holds; total is the stripe's sector count.
// Nothing is compiled until the plan picks the fold.
func buildFold(p *Plan, total int) *Fold {
	rest := p.Rest
	f := rest.S.Field()
	rows := rest.S.Rows()
	restPos := make([]int, total) // column -> its index in S_rest, or -1
	for c := range restPos {
		restPos[c] = -1
	}
	for j, c := range rest.SurvivorCols {
		restPos[c] = j
	}
	claimed := make([]bool, len(rest.SurvivorCols))
	fd := &Fold{Groups: make([]FoldGroup, len(p.Groups)), rows: rows}
	var acc []uint32 // the group's syndrome rows, rows × |s_g|, row-major
	for g := range p.Groups {
		sd := &p.Groups[g]
		k := len(sd.SurvivorCols)
		if cap(acc) < rows*k {
			acc = make([]uint32, rows*k)
		}
		acc = acc[:rows*k]
		clear(acc)
		// The columns the group recovers: S_rest[:, f]·G_g.
		for i, c := range sd.FaultyCols {
			j := restPos[c]
			if j < 0 {
				continue
			}
			claimed[j] = true
			grow := sd.G.Row(i)
			for r := 0; r < rows; r++ {
				a := rest.S.At(r, j)
				if a == 0 {
					continue
				}
				for col, b := range grow {
					if b != 0 {
						acc[r*k+col] ^= f.Mul(a, b)
					}
				}
			}
		}
		// The survivors no earlier group claimed: S_rest[:, s].
		for col, c := range sd.SurvivorCols {
			if j := restPos[c]; j >= 0 && !claimed[j] {
				claimed[j] = true
				for r := 0; r < rows; r++ {
					acc[r*k+col] ^= rest.S.At(r, j)
				}
			}
		}
		fd.Groups[g] = foldGroup(f, acc, rows, k)
		if syn := fd.Groups[g].Syn; syn != nil {
			fd.ops += int64(syn.NNZ())
		}
	}
	var own []int // H_rest's own columns, as indices into S_rest
	for j, done := range claimed {
		if !done {
			own = append(own, j)
			fd.OwnCols = append(fd.OwnCols, rest.SurvivorCols[j])
		}
	}
	fd.Own = rest.S.SelectColumns(own)
	fd.ops += int64(fd.Own.NNZ())
	return fd
}

// foldGroup keeps the nonzero rows of a group's rows × k syndrome block.
func foldGroup(f gf.Field, acc []uint32, rows, k int) FoldGroup {
	var fg FoldGroup
	for r := 0; r < rows; r++ {
		for _, a := range acc[r*k : (r+1)*k] {
			if a != 0 {
				fg.Rows = append(fg.Rows, r)
				break
			}
		}
	}
	if len(fg.Rows) == 0 {
		return fg
	}
	fg.Syn = matrix.New(f, len(fg.Rows), k)
	for i, r := range fg.Rows {
		for col, a := range acc[r*k : (r+1)*k] {
			fg.Syn.Set(i, col, a)
		}
	}
	return fg
}

// compile lowers each group's [G_g; Syn_g], the own columns and
// H_rest's F_rest⁻¹, the one matrix of H_rest the fold applies, and
// lays out the executor's views.
func (fd *Fold) compile(f gf.Field, p *Plan) {
	for g := range fd.Groups {
		fg, m := &fd.Groups[g], p.Groups[g].G
		if fg.Syn != nil {
			m = m.Stack(fg.Syn)
		}
		fg.c = kernel.CompileAccumulating(f, m, len(fg.Rows))
	}
	if len(fd.OwnCols) > 0 {
		fd.cOwn = kernel.Compile(f, fd.Own)
	}
	p.Rest.cFinv = kernel.Compile(f, p.Rest.Finv)

	syndrome := func(rows []int) {
		for _, r := range rows {
			fd.slots = append(fd.slots, -1-r)
		}
	}
	for r := 0; r < fd.rows; r++ {
		fd.slots = append(fd.slots, -1-r)
	}
	fd.slots = append(fd.slots, fd.OwnCols...)
	fd.slots = append(fd.slots, p.Rest.FaultyCols...)
	for g := range fd.Groups {
		sd := &p.Groups[g]
		fd.Groups[g].at = len(fd.slots)
		fd.slots = append(fd.slots, sd.SurvivorCols...)
		fd.slots = append(fd.slots, sd.FaultyCols...)
		syndrome(fd.Groups[g].Rows)
	}
}

// fold runs a folded plan over the session's byte range of st's
// sectors. The range splits into parts: tile-aligned byte ranges, one
// per thread at T > 1; at T = 1 the spans a whole-sector apply would
// fan out across the worker pool, or the whole range when it stays
// serial. Each part runs the whole folded sequence one cache tile at a
// time (foldSpan) with its own tile-sized syndrome scratch and views,
// so parts need no merge, the syndrome never leaves cache, and the call
// counts C5 once.
func (s *execSession) fold(p *Plan, st *stripe.Stripe, threads int) error {
	fd := p.fold
	var parts [][2]int
	if t := effectiveThreads(threads, len(p.Groups)); t > 1 {
		parts = kernel.ChunkRangesAligned(s.hi-s.lo, t, p.Rest.Finv.Field().WordBytes())
	} else if s.whole {
		parts = kernel.FanoutSpans(s.hi - s.lo)
	}
	n := max(len(parts), 1)
	tile := kernel.TileSize()
	sb := kernel.GetScratch(n*fd.rows, min(s.hi-s.lo, tile))
	defer sb.Release()
	syn, views := sb.Regions(), s.viewSlots(n*len(fd.slots))
	var err error
	if parts == nil {
		err = s.foldSpan(p, st, views, syn, s.lo, s.hi, tile)
	} else {
		slots, rows := len(fd.slots), fd.rows
		//ppm:hotpath
		err = kernel.DefaultWorkers().Run(len(parts), func(i int) error {
			return s.foldSpan(p, st, views[i*slots:(i+1)*slots], syn[i*rows:(i+1)*rows],
				s.lo+parts[i][0], s.lo+parts[i][1], tile)
		})
	}
	if err == nil {
		s.stats.AddMultXORs(p.Costs.Chosen)
	}
	return err
}

// foldSpan runs the folded sequence over [lo, hi) of every sector, one
// tile at a time, with views laid out as fd.slots and syndrome rows in
// syn, tile bytes each. Per tile, the own columns overwrite the
// syndrome, each group makes one pass over its survivors that writes
// its sectors and adds its syndrome rows, and F_rest⁻¹ turns the
// syndrome into H_rest's sectors. A panic, kernel or view setup, comes
// back as an error.
//
//ppm:hotpath
func (s *execSession) foldSpan(p *Plan, st *stripe.Stripe, v, syn [][]byte, lo, hi, tile int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			//ppm:allow(hotalloc) panic recovery: this branch is the cold failure path
			err = fmt.Errorf("core: folded decode failed: %v", r)
		}
	}()
	fd := p.fold
	own := len(fd.OwnCols)
	for t := lo; t < hi; t += tile {
		te := min(t+tile, hi)
		n := te - t
		for i, c := range fd.slots {
			if c >= 0 {
				v[i] = st.Sector(c)[t:te]
			} else {
				v[i] = syn[-1-c][:n]
			}
		}
		rows := v[:fd.rows]
		if fd.cOwn != nil {
			fd.cOwn.ApplyRange(v[fd.rows:fd.rows+own], rows, 0, n, true, nil)
		} else {
			for _, r := range rows {
				clear(r)
			}
		}
		for g := range fd.Groups {
			fg := &fd.Groups[g]
			at := fg.at + fg.c.Cols()
			fg.c.ApplyRange(v[fg.at:at], v[at:at+fg.c.Rows()], 0, n, true, nil)
		}
		finv := p.Rest.cFinv
		finv.ApplyRange(rows, v[fd.rows+own:fd.rows+own+finv.Rows()], 0, n, true, nil)
	}
	return nil
}
