package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Cache blocking. The kernel applies a decode matrix to whole-sector
// regions; at multi-megabyte sector sizes a row-at-a-time sweep streams
// every source region through the cache once per row. The tiled driver
// instead splits the byte range into tiles (default 32 KiB) and applies
// the *whole matrix* to one tile before moving to the next, so a tile's
// source data, loaded by the first row, is still cache-resident for
// every later row, and the Normal sequence's intermediate S*BS product
// never leaves cache at all (see chained product in compiled.go).
//
// The tile is a fixed 32 KiB: it keeps a typical decode working set
// (tile x survivor count) inside L2 while staying large enough that
// per-tile bookkeeping is noise. No host calibration picks it: over
// 8 MiB regions the best tile changes with the field width and from
// run to run, and a sector of 32 KiB or less is one tile at any larger
// size. setTileSize is a test seam: the differential tests shrink the
// tile to force many-tile execution on small regions.

const (
	defaultTileBytes = 32 << 10
	// minTileBytes bounds the knob from below: tiles smaller than this
	// spend more time re-slicing views than multiplying.
	minTileBytes = 512
	// defaultFanoutMinBytes is the region size at which the compiled
	// apply fans tile spans out across the worker pool: below it the
	// fan-out dispatch costs more than it overlaps, and keeping small
	// regions serial preserves the allocation-free repeated-decode path.
	defaultFanoutMinBytes = 1 << 20
	// minFanoutBytes bounds the fan-out threshold from below: fanning
	// out sub-tile regions is pure dispatch overhead.
	minFanoutBytes = 4 << 10
)

var (
	tileBytes   atomic.Int64
	fanoutBytes atomic.Int64
)

func init() {
	tileBytes.Store(defaultTileBytes)
	fanoutBytes.Store(defaultFanoutMinBytes)
}

// tileSize returns the current cache-blocking tile size in bytes.
func tileSize() int { return int(tileBytes.Load()) }

// setTileSize sets the cache-blocking tile size. n is rounded up to a
// multiple of 8 bytes (an exact multiple of every supported GF word
// size) and clamped below at 512; n <= 0 restores the 32 KiB default.
// Tests call it; in-flight applications keep the size they started
// with.
func setTileSize(n int) {
	if n <= 0 {
		n = defaultTileBytes
	}
	if n < minTileBytes {
		n = minTileBytes
	}
	tileBytes.Store(int64((n + 7) &^ 7))
}

// fanoutMinBytes returns the region size at which one compiled apply
// fans its tile spans out across the worker pool.
func fanoutMinBytes() int { return int(fanoutBytes.Load()) }

// setFanoutMinBytes sets the worker fan-out threshold. n is clamped
// below at 4 KiB; n <= 0 restores the 1 MiB default. It is a test seam
// that forces the fan-out path at small sizes; in-flight applications
// keep the threshold they started with.
func setFanoutMinBytes(n int) {
	if n <= 0 {
		n = defaultFanoutMinBytes
	}
	if n < minFanoutBytes {
		n = minFanoutBytes
	}
	fanoutBytes.Store(int64(n))
}

// tileSpans splits [0, size) into at most `parts` spans of whole tiles
// (the last span absorbs the sub-tile remainder), for fanning the tile
// loop of one apply across workers. Returns nil when one span suffices.
func tileSpans(size, parts, tile int) [][2]int {
	if parts > size/tile {
		parts = size / tile
	}
	if parts <= 1 {
		return nil
	}
	tiles := size / tile
	spans := make([][2]int, 0, parts)
	start := 0
	for i := 0; i < parts; i++ {
		n := tiles / parts
		if i < tiles%parts {
			n++
		}
		end := start + n*tile
		if i == parts-1 {
			end = size
		}
		if end > start {
			spans = append(spans, [2]int{start, end})
		}
		start = end
	}
	return spans
}

// applyWorkers is the fan-out width for one large-region apply: the
// core count, the same budget the executors draw on. The worker pool's
// inline-fallback dispatch keeps nesting safe (an apply running inside
// a group worker hands tiles to idle workers or runs them itself).
func applyWorkers() int { return runtime.NumCPU() }

// viewArena is a pooled arena of region-view headers ([lo:hi] sub-slices
// of caller regions), the per-apply scratch the tiled driver needs to
// present one tile of every source to the fused row kernels. Pooled and
// cleared on release so the repeated-decode path allocates nothing and
// the pool never pins caller buffers.
//
//ppm:nocopy
type viewArena struct {
	views [][]byte
	used  int
}

var viewPool = sync.Pool{New: func() interface{} { return new(viewArena) }}

func getViewArena(capacity int) *viewArena {
	a := viewPool.Get().(*viewArena)
	if cap(a.views) < capacity {
		a.views = make([][]byte, capacity)
	}
	a.views = a.views[:capacity]
	a.used = 0
	return a
}

// take returns n cleared view slots from the arena.
func (a *viewArena) take(n int) [][]byte {
	v := a.views[a.used : a.used+n : a.used+n]
	a.used += n
	return v
}

func (a *viewArena) release() {
	for i := range a.views {
		a.views[i] = nil
	}
	viewPool.Put(a)
}

// ChunkRangesAligned is ChunkRanges with the boundaries additionally
// aligned to the current tile size when every part is at least two
// tiles long — the block-parallel baseline uses it so its chunk splits
// compose with the kernel's tiling instead of shearing tiles across
// workers. For smaller ranges it degrades to plain word alignment.
func ChunkRangesAligned(size, parts, wordBytes int) [][2]int {
	tile := tileSize()
	if parts > 1 && size >= 2*tile*parts {
		spans := tileSpans(size, parts, tile)
		if spans != nil {
			return spans
		}
	}
	return ChunkRanges(size, parts, wordBytes)
}
