package repair

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/lru"
)

// ErrVerify wraps a plan-verification rejection: a freshly built repair
// plan failed the registered symbolic verifier and was not admitted to
// the planner cache.
var ErrVerify = fmt.Errorf("repair: compiled plan failed plan verification")

// verifier holds the registered plan verifier (func(codes.Code, *Plan)
// error), installed by internal/planverify's init. The registration
// indirection keeps the dependency one-way: planverify imports repair
// to walk plans, never the reverse.
var verifier atomic.Value

type verifierFn func(codes.Code, *Plan) error

// RegisterVerifier installs the symbolic repair-plan verifier consulted
// when plan verification is enabled. fn must be safe for concurrent use.
func RegisterVerifier(fn func(codes.Code, *Plan) error) {
	verifier.Store(verifierFn(fn))
}

// verifyPlans mirrors the xorplan gate: compile-time verification is
// off by default and enabled by PPM_VERIFY_PLANS=1 or SetVerifyPlans.
// Cache hits never re-verify; only freshly built plans pay the walk.
var verifyPlans atomic.Bool

func init() {
	if os.Getenv("PPM_VERIFY_PLANS") == "1" {
		verifyPlans.Store(true)
	}
}

// SetVerifyPlans enables or disables build-time plan verification and
// returns the previous setting (restore idiom for tests).
func SetVerifyPlans(on bool) (prev bool) { return verifyPlans.Swap(on) }

// buildVerified builds a plan and, when the gate is on, refuses to
// return one the registered verifier rejects.
func buildVerified(c codes.Code, sc codes.Scenario, wanted []int) (*Plan, error) {
	plan, err := buildPlan(c, sc, wanted)
	if err != nil {
		return nil, err
	}
	if verifyPlans.Load() {
		if fn, _ := verifier.Load().(verifierFn); fn != nil {
			if err := fn(c, plan); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrVerify, err)
			}
		}
	}
	return plan, nil
}

// DefaultCacheSize bounds a Planner's plan cache. A rebuild or
// degraded-read workload sees a handful of distinct (failure pattern,
// wanted set) signatures, so a small LRU holds the working set.
const DefaultCacheSize = 64

// Planner builds and caches minimal-read repair plans for one code.
// Safe for concurrent use: the cache is mutex-guarded and cached plans
// are immutable.
type Planner struct {
	code     codes.Code
	capacity int
	cache    *lru.Cache[*Plan]

	mu         sync.Mutex // guards the memoized updater
	updater    *core.Updater
	updaterErr error
	updaterSet bool
}

// PlannerOption configures a Planner.
type PlannerOption func(*Planner)

// WithCacheSize bounds the plan cache; capacity <= 0 disables caching.
func WithCacheSize(capacity int) PlannerOption {
	return func(p *Planner) { p.capacity = capacity }
}

// NewPlanner builds a repair planner for the code.
func NewPlanner(c codes.Code, opts ...PlannerOption) *Planner {
	p := &Planner{code: c, capacity: DefaultCacheSize}
	for _, o := range opts {
		o(p)
	}
	p.cache = lru.New[*Plan](p.capacity)
	return p
}

// Code returns the bound code instance.
func (p *Planner) Code() codes.Code { return p.code }

// planKey renders (failure pattern, wanted set) as a cache key, each
// list in the order the caller gave it. The builder canonicalises
// wanted, but the key does not: wanted {2,8}, {8,2} and {2,8,8} are
// three keys, so three misses and three entries of equal plans. Callers
// that replan one wanted set keep it in one order (fault.Healer builds
// its lists in index order).
func planKey(buf []byte, sc codes.Scenario, wanted []int) []byte {
	for _, f := range sc.Faulty {
		buf = strconv.AppendInt(buf, int64(f), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, '|')
	if wanted == nil {
		buf = append(buf, '*')
		return buf
	}
	for _, w := range wanted {
		buf = strconv.AppendInt(buf, int64(w), 10)
		buf = append(buf, ',')
	}
	return buf
}

// Plan returns the minimal-read repair plan recovering the wanted
// faulty sectors of the scenario (nil wanted = every faulty sector),
// consulting the LRU cache first. The cache keys the scenario and the
// wanted list exactly as given (see planKey); the plan's Wanted is
// canonical either way. Wanted sectors that are not faulty are ignored
// — they are readable as-is. A faulty list with an index outside the
// stripe or a repeat fails with that index (codes.CheckFaulty); an
// undecodable scenario fails with an error wrapping
// core.ErrUnrecoverable. Both are checked on a miss only and never
// cached, so a plan from the cache stands for decodability. The plan
// copies sc, so the caller may reuse its slices.
func (p *Planner) Plan(sc codes.Scenario, wanted []int) (*Plan, error) {
	var arr [128]byte
	key := planKey(arr[:0], sc, wanted)
	if plan, ok := p.cache.Get(key); ok {
		return plan, nil
	}
	plan, err := buildVerified(p.code, sc, wanted)
	if err != nil {
		return nil, err
	}
	p.cache.Put(key, plan)
	return plan, nil
}

// CacheStats reports the plan cache's hit and miss counters (both zero
// when the cache is disabled). Misses equal the number of plans built.
func (p *Planner) CacheStats() (hits, misses int64) { return p.cache.Stats() }

// Updater returns the planner's memoized delta-parity updater — the
// read-modify-write small-write path that patches the parity sectors
// one data-strip overwrite touches instead of re-encoding the stripe.
func (p *Planner) Updater() (*core.Updater, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.updaterSet {
		p.updater, p.updaterErr = core.NewUpdater(p.code)
		p.updaterSet = true
	}
	return p.updater, p.updaterErr
}

// DeltaCost reports the sectors a delta update of dataIdx touches
// (read old data + parity, write new data + parity: 1 + column nnz)
// against the sectors a full re-encode moves (the whole stripe), the
// comparison behind the ≥2x delta-update gate.
func (p *Planner) DeltaCost(dataIdx int) (deltaSectors, reencodeSectors int, err error) {
	u, err := p.Updater()
	if err != nil {
		return 0, 0, err
	}
	nnz, err := u.UpdateCost(dataIdx)
	if err != nil {
		return 0, 0, err
	}
	return 1 + nnz, codes.TotalSectors(p.code), nil
}
