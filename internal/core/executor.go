package core

import (
	"fmt"
	"runtime"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Execute runs a plan against a stripe: Step 3 fans the p independent
// sub-decodes over T workers of the persistent kernel pool, Step 4
// merges the recovered blocks into the remaining decode. threads <= 0
// selects the paper's default T = min(4, cores); the effective T never
// exceeds p ("we also restrain the number of threads T (T <= p)",
// §III-C). The field argument is unused: BuildPlan compiles every
// sub-decode for its code's field.
//
// Error contract: if any sub-decode fails, Execute returns the error of
// the lowest-indexed failing group (then the remaining decode's),
// deterministically — concurrent failures are never dropped. The
// per-decode state (sector views, error slots, Normal-sequence scratch)
// comes from pools, so repeated executions of one plan allocate
// nothing per stripe.
func Execute(p *Plan, st *stripe.Stripe, _ gf.Field, threads int, stats *kernel.Stats) error {
	if p == nil || st == nil {
		return fmt.Errorf("core: nil plan or stripe")
	}
	return executeSpan(p, st, threads, stats, nil, 0, st.SectorSize())
}

// executeSpan is the one executor body. It runs the selected groups of
// p (every group when sel is nil) over the [lo, hi) byte range of every
// sector, thread (g mod T) taking group g as in Algorithm 1, then the
// serial tail: H_rest when selected, or the single sub-decode of a
// whole-matrix plan, which always runs in full. lo and hi must be
// word-aligned.
func executeSpan(p *Plan, st *stripe.Stripe, threads int, stats *kernel.Stats, sel *PartialSelection, lo, hi int) (err error) {
	// View preparation indexes the stripe with the plan's column lists;
	// a malformed plan surfaces as an error, like every other failure.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: execute failed: %v", r)
		}
	}()
	s := getSession(st, lo, hi, stats)
	defer s.release()

	tail := p.Rest
	if sel == nil {
		for i := range p.Groups {
			s.add(&p.Groups[i], st)
		}
	} else {
		for _, gi := range sel.GroupIdx {
			s.add(&p.Groups[gi], st)
		}
		if !sel.NeedRest {
			tail = nil
		}
	}
	if p.Whole != nil {
		tail = &p.Whole.SubDecode
	}

	n := len(s.jobs)
	if t := effectiveThreads(threads, n); t <= 1 {
		for i := 0; i < n; i++ {
			if err := s.apply(i); err != nil {
				return err
			}
		}
	} else {
		// Each group's outcome lands in its own slot, so the error of
		// the lowest group index wins whatever the scheduling order.
		errs := s.errSlots(n)
		//ppm:hotpath
		poolErr := kernel.DefaultWorkers().Run(t, func(w int) error {
			for g := w; g < n; g += t {
				if err := s.apply(g); err != nil {
					errs[g] = err
					return err
				}
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if poolErr != nil {
			return poolErr
		}
	}

	if tail != nil {
		return s.apply(s.add(tail, st))
	}
	return nil
}

// DefaultThreads is the paper's thread policy: min(4, core count).
func DefaultThreads() int {
	if c := runtime.NumCPU(); c < 4 {
		return c
	}
	return 4
}

func effectiveThreads(threads, p int) int {
	t := threads
	if t <= 0 {
		t = DefaultThreads()
	}
	if t > p {
		t = p
	}
	if t < 1 {
		t = 1
	}
	return t
}
