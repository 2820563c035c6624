package core

import (
	"fmt"
	"strconv"

	"ppm/internal/codes"
	"ppm/internal/kernel"
	"ppm/internal/lru"
	"ppm/internal/stripe"
)

// DefaultPlanCacheSize is the plan-cache bound a Decoder starts with.
// A rebuild workload sees a handful of distinct failure signatures (one
// per dead-disk pattern plus a few latent-sector variants), so a small
// LRU holds the entire working set; the bound only matters for
// adversarial scenario churn.
const DefaultPlanCacheSize = 64

// Decoder binds a code instance to PPM execution options. A Decoder is
// safe for concurrent use by multiple goroutines on distinct stripes:
// the plan cache is mutex-guarded, cached plans are immutable, and the
// executor draws its per-decode scratch state from pools.
type Decoder struct {
	code     codes.Code
	threads  int
	strategy Strategy
	stats    *kernel.Stats
	cacheCap int
	cache    *lru.Cache[*Plan]
}

// Option configures a Decoder.
type Option func(*Decoder)

// WithThreads sets the worker count T for the parallel phase.
// t <= 0 selects the paper's default min(4, cores).
func WithThreads(t int) Option {
	return func(d *Decoder) { d.threads = t }
}

// WithStrategy overrides the planning strategy (default StrategyPPM).
func WithStrategy(s Strategy) Option {
	return func(d *Decoder) { d.strategy = s }
}

// WithStats attaches an operation counter shared across decodes.
func WithStats(s *kernel.Stats) Option {
	return func(d *Decoder) { d.stats = s }
}

// WithPlanCache bounds the Decoder's built-in plan cache: Decode keeps
// up to capacity built plans, keyed by failure pattern + strategy, so
// repeated decodes of the same pattern (a whole-disk rebuild decodes
// thousands of stripes that failed identically) skip planning entirely
// and run at DecodeWithPlan speed. capacity <= 0 disables the cache
// and restores plan-per-call behaviour. The default is
// DefaultPlanCacheSize.
func WithPlanCache(capacity int) Option {
	return func(d *Decoder) { d.cacheCap = capacity }
}

// NewDecoder builds a PPM decoder for the code. The plan cache is on
// by default (see WithPlanCache).
func NewDecoder(c codes.Code, opts ...Option) *Decoder {
	d := &Decoder{code: c, strategy: StrategyPPM, cacheCap: DefaultPlanCacheSize}
	for _, o := range opts {
		o(d)
	}
	d.cache = lru.New[*Plan](d.cacheCap)
	return d
}

// Code returns the bound code instance.
func (d *Decoder) Code() codes.Code { return d.code }

// Plan prepares (and returns) the decode plan for a scenario without
// touching any data, for inspection or reuse across stripes.
func (d *Decoder) Plan(sc codes.Scenario) (*Plan, error) {
	return BuildPlan(d.code, sc, d.strategy)
}

// Decode recovers the scenario's faulty sectors of st in place: plan,
// parallel phase, merge phase. With the plan cache enabled (the
// default) the plan is built once per distinct failure pattern and
// every later Decode of that pattern runs at DecodeWithPlan speed.
func (d *Decoder) Decode(st *stripe.Stripe, sc codes.Scenario) error {
	if err := d.checkGeometry(st); err != nil {
		return err
	}
	plan, err := d.planFor(sc)
	if err != nil {
		return err
	}
	return Execute(plan, st, d.code.Field(), d.threads, d.stats)
}

// planFor returns the plan for the scenario, consulting the cache when
// enabled. Concurrent first-decodes of the same pattern may build the
// plan more than once; plans are idempotent, so the duplicates are
// merely discarded.
func (d *Decoder) planFor(sc codes.Scenario) (*Plan, error) {
	var arr [96]byte
	key := planKey(arr[:0], sc, d.strategy)
	if plan, ok := d.cache.Get(key); ok {
		return plan, nil
	}
	plan, err := BuildPlan(d.code, sc, d.strategy)
	if err != nil {
		return nil, err
	}
	d.cache.Put(key, plan)
	return plan, nil
}

// planKey renders a failure pattern + strategy as a cache key.
// Scenario.Faulty is sorted (codes.NewScenario and the generators
// guarantee it), so equal patterns render equal keys; an unsorted list
// gets an entry of its own.
func planKey(buf []byte, sc codes.Scenario, strategy Strategy) []byte {
	buf = strconv.AppendInt(buf, int64(strategy), 10)
	for _, f := range sc.Faulty {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(f), 10)
	}
	return buf
}

// PlanCacheStats reports the plan cache's hit and miss counters since
// the Decoder was built (both zero when the cache is disabled). Misses
// equal the number of plans Decode built.
func (d *Decoder) PlanCacheStats() (hits, misses int64) { return d.cache.Stats() }

// DecodeWithPlan runs a previously built plan against a stripe —
// the repeated-decode fast path (one stripe after another fails the
// same way when a whole disk dies).
func (d *Decoder) DecodeWithPlan(plan *Plan, st *stripe.Stripe) error {
	if err := d.checkGeometry(st); err != nil {
		return err
	}
	return Execute(plan, st, d.code.Field(), d.threads, d.stats)
}

// Encode computes all parity sectors from the data sectors, as the
// decode special case whose erasures are the parity positions. For SD
// codes this parallelises over the stripe rows that hold no coding
// sector (p = r - z rows, §IV).
func (d *Decoder) Encode(st *stripe.Stripe) error {
	return d.Decode(st, codes.EncodingScenario(d.code))
}

func (d *Decoder) checkGeometry(st *stripe.Stripe) error {
	if st.N() != d.code.NumStrips() || st.R() != d.code.NumRows() {
		return fmt.Errorf("core: stripe %dx%d does not match code %s (%dx%d)",
			st.N(), st.R(), d.code.Name(), d.code.NumStrips(), d.code.NumRows())
	}
	if st.SectorSize()%d.code.Field().WordBytes() != 0 {
		return fmt.Errorf("core: sector size %d not a multiple of GF(2^%d) words",
			st.SectorSize(), d.code.Field().W())
	}
	return nil
}
