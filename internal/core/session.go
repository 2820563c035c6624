package core

import (
	"fmt"
	"sync"

	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// execSession is the reusable per-call state of the executor: the
// byte range being decoded, an arena of sector-view slice headers, the
// prepared sub-decodes, and the per-group error slots. Sessions
// circulate through a sync.Pool and keep their slices' capacity, so the
// repeated-decode path — one plan executed against thousands of
// stripes during a whole-disk rebuild — allocates nothing per stripe
// beyond the worker pool's fixed dispatch state.
//
// A session is owned by exactly one executeSpan call; the stripe views
// it holds are cleared on release so the pool never pins stripe
// buffers.
//
//ppm:nocopy
type execSession struct {
	lo, hi int
	// full marks a whole-sector range, which goes through the kernel
	// entry point that fans large sectors out over the worker pool.
	full  bool
	stats *kernel.Stats

	views [][]byte
	jobs  []subJob
	errs  []error
}

// subJob is one sub-decode with its survivor (in) and faulty (out)
// sector views.
type subJob struct {
	sd      *SubDecode
	in, out [][]byte
}

var sessionPool = sync.Pool{New: func() interface{} { return new(execSession) }}

func getSession(st *stripe.Stripe, lo, hi int, stats *kernel.Stats) *execSession {
	s := sessionPool.Get().(*execSession)
	s.lo, s.hi, s.full, s.stats = lo, hi, lo == 0 && hi == st.SectorSize(), stats
	s.views, s.jobs = s.views[:0], s.jobs[:0]
	return s
}

func (s *execSession) release() {
	for i := range s.views {
		s.views[i] = nil // do not pin stripe buffers in the pool
	}
	for i := range s.jobs {
		s.jobs[i] = subJob{}
	}
	s.stats = nil
	sessionPool.Put(s)
}

// sectorViews appends the stripe's buffers for cols to the view arena
// and returns them as one capacity-capped slice.
func (s *execSession) sectorViews(st *stripe.Stripe, cols []int) [][]byte {
	start := len(s.views)
	for _, c := range cols {
		s.views = append(s.views, st.Sector(c))
	}
	return s.views[start:len(s.views):len(s.views)]
}

// add prepares a sub-decode's views and returns its index for apply.
func (s *execSession) add(sd *SubDecode, st *stripe.Stripe) int {
	in := s.sectorViews(st, sd.SurvivorCols)
	s.jobs = append(s.jobs, subJob{sd: sd, in: in, out: s.sectorViews(st, sd.FaultyCols)})
	return len(s.jobs) - 1
}

// errSlots returns n cleared error slots.
func (s *execSession) errSlots(n int) []error {
	if cap(s.errs) < n {
		s.errs = make([]error, n)
	}
	s.errs = s.errs[:n]
	for i := range s.errs {
		s.errs[i] = nil
	}
	return s.errs
}

// validate checks the sub-decode's compiled matrices against the view
// counts the executor is about to apply them to, so a malformed
// sub-decode surfaces as a returned error instead of a kernel panic.
func (sd *SubDecode) validate(inN, outN int) error {
	var rows, cols int
	switch {
	case sd.Seq == kernel.MatrixFirst && sd.cG != nil:
		rows, cols = sd.cG.Rows(), sd.cG.Cols()
	case sd.Seq == kernel.Normal && sd.cFinv != nil && sd.cS != nil:
		if sd.cFinv.Rows() != sd.cFinv.Cols() || sd.cFinv.Cols() != sd.cS.Rows() {
			return fmt.Errorf("core: sub-decode F^-1 %dx%d does not chain to S %dx%d",
				sd.cFinv.Rows(), sd.cFinv.Cols(), sd.cS.Rows(), sd.cS.Cols())
		}
		rows, cols = sd.cS.Rows(), sd.cS.Cols()
	default:
		return fmt.Errorf("core: sub-decode has no compiled matrices for the %v sequence", sd.Seq)
	}
	if rows != outN || cols != inN {
		return fmt.Errorf("core: sub-decode matrix is %dx%d against %d survivors, %d faulty", rows, cols, inN, outN)
	}
	return nil
}

// apply runs prepared sub-decode i over the session's byte range. A
// whole-sector range goes through kernel.CompiledProduct, whose tile
// spans fan out across the worker pool on large sectors; a sub-range
// runs serially. Shape mismatches and kernel panics come back as
// errors — a failing sub-decode is always reported, never dropped and
// never allowed to kill the process.
//
//ppm:hotpath
func (s *execSession) apply(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			//ppm:allow(hotalloc) panic recovery: this branch is the cold failure path
			err = fmt.Errorf("core: sub-decode failed: %v", r)
		}
	}()
	sd, in, out := s.jobs[i].sd, s.jobs[i].in, s.jobs[i].out
	if verr := sd.validate(len(in), len(out)); verr != nil {
		return verr
	}
	if s.full {
		kernel.CompiledProduct(sd.cFinv, sd.cS, sd.cG, in, out, nil, sd.Seq, s.stats)
	} else {
		kernel.CompiledProductRange(sd.cFinv, sd.cS, sd.cG, in, out, nil, sd.Seq, s.lo, s.hi, s.stats)
	}
	return nil
}
