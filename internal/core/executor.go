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
	return executeSpan(p, st, threads, 0, st.SectorSize(), stats)
}

// ExecuteRange runs a plan at T = 1 over the [lo, hi) byte range of
// every sector, leaving the rest of each recovered sector untouched —
// the executor of repair plans (Plan.Select cut-downs), whose degraded
// reads recover a sub-range. The caller checks the range: lo and hi
// must be multiples of the field word size with 0 <= lo < hi <=
// st.SectorSize(). The whole range runs exactly as Execute at T = 1.
func ExecuteRange(p *Plan, st *stripe.Stripe, lo, hi int, stats *kernel.Stats) error {
	if p == nil || st == nil {
		return fmt.Errorf("core: nil plan or stripe")
	}
	return executeSpan(p, st, 1, lo, hi, stats)
}

// executeSpan is the one executor body: Algorithm 1 over the [lo, hi)
// byte range of every sector. Thread (g mod T) takes group g, then the
// serial tail runs: H_rest, or the single sub-decode of a whole-matrix
// plan. A folded plan runs its own sequence instead (fold.go).
func executeSpan(p *Plan, st *stripe.Stripe, threads, lo, hi int, stats *kernel.Stats) (err error) {
	// View preparation indexes the stripe with the plan's column lists;
	// a malformed plan surfaces as an error, like every other failure.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: execute failed: %v", r)
		}
	}()
	s := getSession(stats, lo, hi, lo == 0 && hi == st.SectorSize())
	defer s.release()
	if p.fold != nil {
		return s.fold(p, st, threads)
	}

	for i := range p.Groups {
		s.add(&p.Groups[i], st)
	}
	tail := p.Rest
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
