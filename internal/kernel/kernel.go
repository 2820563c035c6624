// Package kernel implements the matrix-times-block-regions engine that
// every decode runs on — PPM's plans and the traditional baseline
// alike: computing products like F^-1 * S * BS where the vector entries
// are whole sector buffers, on matrices compiled once into row blocks
// (compiled.go).
//
// Every nonzero matrix coefficient costs exactly one mult_XORs() region
// operation, the paper's unit of computational cost. The kernel counts
// those operations (atomically, because PPM runs several sub-decodes
// concurrently) so the measured cost of any decode can be compared
// against the analytic C1..C4 formulas — a property the test suite
// exploits heavily. Tiling and fusion change how the bytes are swept,
// never how many logical region operations are counted.
package kernel

import (
	"fmt"
	"sync/atomic"
)

// Stats accumulates operation counts across one encode/decode. Safe for
// concurrent use.
type Stats struct {
	multXORs atomic.Int64
}

// AddMultXORs records n mult_XORs operations.
func (s *Stats) AddMultXORs(n int64) {
	if s != nil {
		s.multXORs.Add(n)
	}
}

// MultXORs returns the number of mult_XORs performed so far.
func (s *Stats) MultXORs() int64 {
	if s == nil {
		return 0
	}
	return s.multXORs.Load()
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	if s != nil {
		s.multXORs.Store(0)
	}
}

// Sequence selects the calculation order for F^-1 * S * BS (§II-B).
type Sequence int

const (
	// Normal multiplies S by the surviving blocks first, then F^-1 by
	// the intermediate blocks: cost u(F^-1) + u(S). This is the order
	// the open-source SD decoder uses.
	Normal Sequence = iota
	// MatrixFirst multiplies F^-1 * S at matrix level first (scalar
	// cost, ignored per the paper) and then applies the product to the
	// surviving blocks: cost u(F^-1 * S). This is the generator-matrix
	// method.
	MatrixFirst
)

// String names the sequence the way the paper does.
func (s Sequence) String() string {
	switch s {
	case Normal:
		return "normal"
	case MatrixFirst:
		return "matrix-first"
	default:
		return fmt.Sprintf("Sequence(%d)", int(s))
	}
}

// AllocRegions allocates count regions of size bytes backed by one
// contiguous buffer.
func AllocRegions(count, size int) [][]byte {
	backing := make([]byte, count*size)
	regions := make([][]byte, count)
	for i := range regions {
		regions[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return regions
}

func regionLen(regions [][]byte) int {
	if len(regions) == 0 {
		return 0
	}
	return len(regions[0])
}
