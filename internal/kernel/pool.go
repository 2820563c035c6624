package kernel

import "sync"

// Scratch is a pooled set of equally-sized regions backed by one
// contiguous buffer, used for the Normal sequence's intermediate
// S * BS product and for the traditional decoder's syndromes. Getting scratch from the pool instead of calling
// AllocRegions per product is what makes the repeated-decode path
// (one plan, thousands of stripes) allocation-free: after warm-up the
// same backing buffers circulate through sync.Pool.
//
// A Scratch is owned exclusively by its getter until Release; the
// contents are NOT zeroed on Get (CompiledProduct's first stage and
// ApplyOverwrite overwrite their destinations).
//
//ppm:nocopy
type Scratch struct {
	backing []byte
	regions [][]byte
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch returns count regions of size bytes each from the pool,
// growing the pooled backing buffer if needed.
func GetScratch(count, size int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	need := count * size
	if cap(s.backing) < need {
		s.backing = make([]byte, need)
	}
	s.backing = s.backing[:need]
	if cap(s.regions) < count {
		s.regions = make([][]byte, count)
	}
	s.regions = s.regions[:count]
	for i := 0; i < count; i++ {
		s.regions[i] = s.backing[i*size : (i+1)*size : (i+1)*size]
	}
	return s
}

// Regions returns the scratch's region views.
func (s *Scratch) Regions() [][]byte { return s.regions }

// Release returns the scratch to the pool. The caller must not touch
// the regions afterwards.
func (s *Scratch) Release() {
	if s != nil {
		scratchPool.Put(s)
	}
}
