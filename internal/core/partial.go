package core

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// Partial decoding (extension). A degraded read needs one block, not
// every lost block in the stripe; the paper's partition makes the
// minimal work explicit: a wanted block recovered by an independent
// sub-matrix needs only that sub-decode, while a block in H_rest needs
// H_rest plus the groups whose outputs H_rest consumes as survivors.
// For an LRC degraded read this collapses to the single local-group
// decode — the core of the code family's design — without any special
// casing.

// PartialSelection lists which sub-decodes of a plan a partial decode
// must execute to materialise the wanted sectors.
type PartialSelection struct {
	// GroupIdx are indices into Plan.Groups, in execution order.
	GroupIdx []int
	// NeedRest marks whether the remaining decode must run.
	NeedRest bool
	// Ops is the predicted mult_XORs of the selection.
	Ops int64
}

// SelectPartial computes the minimal sub-decode closure for the wanted
// sectors. Wanted sectors that are not faulty in the plan's scenario
// are ignored (they are readable as-is). Whole-matrix plans always
// execute fully.
func (p *Plan) SelectPartial(wanted []int) (PartialSelection, error) {
	var sel PartialSelection
	if p.Whole != nil {
		sel.NeedRest = false
		sel.Ops = p.Whole.ops()
		return sel, nil
	}
	faultyWanted := make(map[int]bool)
	inScenario := make(map[int]bool, len(p.Scenario.Faulty))
	for _, c := range p.Scenario.Faulty {
		inScenario[c] = true
	}
	for _, w := range wanted {
		if inScenario[w] {
			faultyWanted[w] = true
		}
	}
	if len(faultyWanted) == 0 {
		return sel, nil
	}

	needGroup := make([]bool, len(p.Groups))
	if p.Rest != nil {
		for _, c := range p.Rest.FaultyCols {
			if faultyWanted[c] {
				sel.NeedRest = true
				break
			}
		}
	}
	// Groups holding wanted blocks directly.
	for gi := range p.Groups {
		for _, c := range p.Groups[gi].FaultyCols {
			if faultyWanted[c] {
				needGroup[gi] = true
				break
			}
		}
	}
	// H_rest consumes recovered group outputs as survivors: pull in
	// every group whose faulty columns feed it.
	if sel.NeedRest {
		restSurvivor := make(map[int]bool, len(p.Rest.SurvivorCols))
		for _, c := range p.Rest.SurvivorCols {
			restSurvivor[c] = true
		}
		for gi := range p.Groups {
			if needGroup[gi] {
				continue
			}
			for _, c := range p.Groups[gi].FaultyCols {
				if restSurvivor[c] {
					needGroup[gi] = true
					break
				}
			}
		}
	}
	for gi, need := range needGroup {
		if need {
			sel.GroupIdx = append(sel.GroupIdx, gi)
			sel.Ops += p.Groups[gi].ops()
		}
	}
	if sel.NeedRest {
		sel.Ops += p.Rest.ops()
	}
	if len(sel.GroupIdx) == 0 && !sel.NeedRest {
		return sel, fmt.Errorf("core: wanted sectors %v are faulty but belong to no sub-decode (plan inconsistent)", wanted)
	}
	return sel, nil
}

// partialCache is an LRU of computed partial selections keyed by
// failure pattern + wanted set, mirroring planCache: selections are
// immutable after SelectPartial, the cache itself is mutex-guarded,
// and byte-key lookups avoid allocating on the hit path.
type partialCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      list.List // Front is most recently used; values are *partialEntry
}

type partialEntry struct {
	key string
	sel *PartialSelection
}

func newPartialCache(capacity int) *partialCache {
	return &partialCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
	}
}

func (c *partialCache) get(key []byte) *PartialSelection {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		c.lru.MoveToFront(elem)
		return elem.Value.(*partialEntry).sel
	}
	return nil
}

func (c *partialCache) put(key []byte, sel *PartialSelection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		elem.Value.(*partialEntry).sel = sel
		c.lru.MoveToFront(elem)
		return
	}
	for c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*partialEntry).key)
	}
	k := string(key)
	c.entries[k] = c.lru.PushFront(&partialEntry{key: k, sel: sel})
}

// partialFor returns the selection for (scenario, wanted), consulting
// the selection cache when enabled. Distinct orderings of the same
// wanted set cache separately — harmless, callers pass stable lists.
func (d *Decoder) partialFor(plan *Plan, sc codes.Scenario, wanted []int) (*PartialSelection, error) {
	if d.partials == nil {
		sel, err := plan.SelectPartial(wanted)
		if err != nil {
			return nil, err
		}
		return &sel, nil
	}
	var arr [160]byte
	key := planKey(arr[:0], sc, d.strategy)
	key = append(key, '|')
	for _, w := range wanted {
		key = strconv.AppendInt(key, int64(w), 10)
		key = append(key, ',')
	}
	if sel := d.partials.get(key); sel != nil {
		return sel, nil
	}
	sel, err := plan.SelectPartial(wanted)
	if err != nil {
		return nil, err
	}
	d.partials.put(key, &sel)
	return &sel, nil
}

// DecodeSectors recovers only the listed sectors of the scenario — the
// degraded-read path. The remaining faulty sectors are left as they
// are unless their sub-decodes were needed anyway.
func (d *Decoder) DecodeSectors(st *stripe.Stripe, sc codes.Scenario, wanted []int) error {
	return d.DecodeSectorsRange(st, sc, wanted, 0, st.SectorSize())
}

// DecodeSectorsRange is DecodeSectors restricted to the [lo, hi) byte
// sub-range of every sector — a degraded read of part of a block reads
// and computes only that part. Plans and partial selections are both
// LRU-cached, so the repeated path allocates nothing per call.
func (d *Decoder) DecodeSectorsRange(st *stripe.Stripe, sc codes.Scenario, wanted []int, lo, hi int) error {
	if err := d.checkGeometry(st); err != nil {
		return err
	}
	wb := d.code.Field().WordBytes()
	if lo < 0 || hi > st.SectorSize() || lo >= hi {
		return fmt.Errorf("core: byte range [%d,%d) outside sector size %d", lo, hi, st.SectorSize())
	}
	if lo%wb != 0 || hi%wb != 0 {
		return fmt.Errorf("core: byte range [%d,%d) not aligned to the %d-byte GF word", lo, hi, wb)
	}
	plan, err := d.planFor(sc)
	if err != nil {
		return err
	}
	sel, err := d.partialFor(plan, sc, wanted)
	if err != nil {
		return err
	}
	return executeSpan(plan, st, d.threads, d.stats, sel, lo, hi)
}
