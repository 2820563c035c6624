package pipeline

import (
	"sync"

	"ppm/internal/stripe"
)

// Stripe slabs outlive the engine that allocated them: New takes its
// Depth slabs from a free list shared by every engine of the same
// geometry, and Close gives them back. A caller that builds an engine
// per stream (EncodeStream, DecodeStream) then stops allocating,
// zeroing and page-faulting Depth × n·r·sectorSize bytes per call.
//
// The free list is one sync.Pool per geometry, so it has no size to
// pick: slabs nobody takes back return to the GC within two collection
// cycles. A recycled slab holds whatever the last stream left in it;
// the Source contract says who overwrites which sectors.

// slabKey is a slab geometry.
type slabKey struct{ n, r, sectorSize int }

// slabPools maps a slabKey to the *sync.Pool of idle slabs of that
// geometry.
var slabPools sync.Map

func slabPool(k slabKey) *sync.Pool {
	if p, ok := slabPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := slabPools.LoadOrStore(k, new(sync.Pool))
	return p.(*sync.Pool)
}

// takeSlab returns an idle slab of the geometry, or a new one when
// none is idle. Its contents are arbitrary.
func takeSlab(n, r, sectorSize int) (*stripe.Stripe, error) {
	if st, ok := slabPool(slabKey{n, r, sectorSize}).Get().(*stripe.Stripe); ok {
		return st, nil
	}
	return stripe.New(n, r, sectorSize)
}

// giveSlab makes st available to the next engine of its geometry. The
// caller must not touch st afterwards.
func giveSlab(st *stripe.Stripe) {
	slabPool(slabKey{st.N(), st.R(), st.SectorSize()}).Put(st)
}
