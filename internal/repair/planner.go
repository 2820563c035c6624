package repair

import (
	"encoding/binary"
	"slices"
	"sync"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/lru"
)

// DefaultCacheSize bounds a Planner's plan cache. A rebuild or
// degraded-read workload sees a handful of distinct (failure pattern,
// wanted set) signatures, so a small LRU holds the working set.
const DefaultCacheSize = 64

// Planner builds and caches minimal-read repair plans for one code.
// Safe for concurrent use: the cache is mutex-guarded and cached plans
// are immutable.
type Planner struct {
	code  codes.Code
	cache *lru.Cache[*Plan]

	mu         sync.Mutex // guards the memoized updater
	updater    *core.Updater
	updaterErr error
	updaterSet bool
}

// NewPlanner builds a repair planner for the code.
func NewPlanner(c codes.Code) *Planner {
	return &Planner{code: c, cache: lru.New[*Plan](DefaultCacheSize)}
}

// Code returns the bound code instance.
func (p *Planner) Code() codes.Code { return p.code }

// planKey renders what determines a plan as its cache key: the faulty
// list as given, and which of its sectors are wanted. buildPlan keeps
// only the wanted sectors that are faulty, sorted and without repeats
// (canonicalWanted), so the key marks each faulty position wanted or
// not: wanted {2,8}, {8,2}, {2,8,8} and, with 9 live, {2,8,9} share one
// key, and two different plans never do. A nil wanted wants every
// faulty sector, so it shares the key of the wanted list that names
// them all. The faulty list stays in its given order, repeats and all:
// the plan copies it, and an invalid list fails on its miss and is
// never cached. The key grows with the faulty list only, so a long
// wanted list (a whole stripe) still fits a small stack buffer.
func planKey(buf []byte, sc codes.Scenario, wanted []int) []byte {
	faulty := sc.Faulty
	buf = binary.AppendUvarint(buf, uint64(len(faulty)))
	for _, f := range faulty {
		buf = binary.AppendVarint(buf, int64(f))
	}
	mask := len(buf)
	buf = append(buf, make([]byte, (len(faulty)+7)/8)...)
	for i, f := range faulty {
		if wanted == nil || slices.Contains(wanted, f) {
			buf[mask+i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

// Plan returns the minimal-read repair plan recovering the wanted
// faulty sectors of the scenario (nil wanted = every faulty sector),
// consulting the LRU cache first. The plan's Wanted is canonical, and
// the cache keys only what it depends on (see planKey). Wanted sectors
// that are not faulty are ignored — they are readable as-is. A faulty
// list with an index outside the stripe or a repeat fails with that
// index (codes.CheckFaulty); an undecodable scenario fails with an
// error wrapping core.ErrUnrecoverable. Both are checked on a miss
// only and never cached, so a plan from the cache stands for
// decodability. The plan copies sc, so the caller may reuse its
// slices.
func (p *Planner) Plan(sc codes.Scenario, wanted []int) (*Plan, error) {
	var arr [128]byte
	key := planKey(arr[:0], sc, wanted)
	if plan, ok := p.cache.Get(key); ok {
		return plan, nil
	}
	plan, err := buildPlan(p.code, sc, wanted)
	if err != nil {
		return nil, err
	}
	p.cache.Put(key, plan)
	return plan, nil
}

// CacheStats reports the plan cache's hit and miss counters. Misses
// equal the number of plans built.
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
