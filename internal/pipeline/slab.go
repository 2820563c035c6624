package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ppm/internal/stripe"
)

// Stripe slabs outlive the engine that allocated them: New takes its
// Depth slabs from a free list shared by every engine of the same
// geometry, and Close gives them back. A caller that builds an engine
// per stream (EncodeStream, DecodeStream) then stops allocating,
// zeroing and page-faulting Depth × n·r·sectorSize bytes per call.
//
// The free list is one mutex-guarded stack per geometry, so any
// goroutine takes what any other gave back, whichever P either ran on
// (a sync.Pool keeps an item in the giving P's private slot, where a
// caller that moved to another P cannot take it). It has no size to
// pick: a slab that stays idle across two garbage collections is
// dropped and returns to the GC. A cleanup sentinel counts the
// collections (runtime.AddCleanup), and is armed only while some slab
// is idle. A recycled slab holds whatever the last stream left in it;
// the Source contract says who overwrites which sectors.

// slabKey is a slab geometry.
type slabKey struct{ n, r, sectorSize int }

// slabList is the idle slabs of one geometry, the most recently given
// last.
type slabList struct {
	mu   sync.Mutex
	idle []idleSlab
}

// idleSlab is a slab on a free list and the collection count
// (gcCycles) when it was given back.
type idleSlab struct {
	st    *stripe.Stripe
	given uint64
}

var (
	// slabLists maps a slabKey to its *slabList.
	slabLists sync.Map
	// gcCycles counts the collections the sentinel has seen.
	gcCycles atomic.Uint64
	// sentinelArmed is set while a sentinel waits for the next
	// collection.
	sentinelArmed atomic.Bool
)

func slabListOf(k slabKey) *slabList {
	if l, ok := slabLists.Load(k); ok {
		return l.(*slabList)
	}
	l, _ := slabLists.LoadOrStore(k, new(slabList))
	return l.(*slabList)
}

// takeSlab returns an idle slab of the geometry, or a new one when
// none is idle. Its contents are arbitrary.
func takeSlab(n, r, sectorSize int) (*stripe.Stripe, error) {
	l := slabListOf(slabKey{n, r, sectorSize})
	l.mu.Lock()
	if k := len(l.idle); k > 0 {
		st := l.idle[k-1].st
		l.idle[k-1] = idleSlab{}
		l.idle = l.idle[:k-1]
		l.mu.Unlock()
		return st, nil
	}
	l.mu.Unlock()
	return stripe.New(n, r, sectorSize)
}

// giveSlab makes st available to the next engine of its geometry. The
// caller must not touch st afterwards.
func giveSlab(st *stripe.Stripe) {
	l := slabListOf(slabKey{st.N(), st.R(), st.SectorSize()})
	l.mu.Lock()
	l.idle = append(l.idle, idleSlab{st: st, given: gcCycles.Load()})
	l.mu.Unlock()
	armSentinel()
}

// sentinel is an object nothing references: the collection after
// armSentinel allocates one runs its cleanup. It holds a pointer so
// that the allocator never batches it with live tiny objects, which
// could delay the cleanup indefinitely.
type sentinel struct{ _ *byte }

// armSentinel makes sure a sentinel waits for the next collection.
func armSentinel() {
	if sentinelArmed.CompareAndSwap(false, true) {
		runtime.AddCleanup(new(sentinel), func(struct{}) { afterGC() }, struct{}{})
	}
}

// afterGC runs once per collection while slabs are idle: it counts the
// collection, drops every slab given back two or more collections ago,
// and re-arms the sentinel while any slab is left.
func afterGC() {
	now := gcCycles.Add(1)
	sentinelArmed.Store(false)
	left := false
	slabLists.Range(func(_, v any) bool {
		l := v.(*slabList)
		l.mu.Lock()
		kept := l.idle[:0]
		for _, s := range l.idle {
			if now-s.given < 2 {
				kept = append(kept, s)
			}
		}
		clear(l.idle[len(kept):])
		l.idle = kept
		left = left || len(kept) > 0
		l.mu.Unlock()
		return true
	})
	if left {
		armSentinel()
	}
}
