package xorplan

import (
	"encoding/binary"

	"ppm/internal/gf"
	"ppm/internal/lru"
	"ppm/internal/matrix"
)

// DefaultCacheSize bounds the compiled-program LRU. Programs are a few
// KiB each; 256 covers every matrix a realistic code family compiles
// (per-stripe decode matrices included) without unbounded growth.
const DefaultCacheSize = 256

// progCache memoizes CompileCached process-wide.
var progCache = lru.New[*Program](DefaultCacheSize)

// The cache key is the lowering (accumulate or not) and the exact
// encoded matrix — width, dimensions and every coefficient — not a
// digest, so distinct matrices can never collide into the wrong
// program.
func cacheKey(f gf.Field, m *matrix.Matrix, accumulate bool) []byte {
	rows, cols := m.Rows(), m.Cols()
	var lowering byte
	if accumulate {
		lowering = 1
	}
	buf := append(make([]byte, 0, 13+4*rows*cols), lowering)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.W()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cols))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			buf = binary.LittleEndian.AppendUint32(buf, m.At(i, j))
		}
	}
	return buf
}

// CompileCached returns the compiled program for (f, m), memoizing
// compilations in a process-wide LRU. The returned Program is shared
// and immutable. Concurrent misses on one key each compile an
// equivalent program; the cache keeps the last one stored.
func CompileCached(f gf.Field, m *matrix.Matrix) (*Program, error) {
	return compileCached(f, m, false)
}

// CompileCachedAccumulate is CompileCached for a program no output row
// of which derives from another, so RunAccumulate can always run it.
func CompileCachedAccumulate(f gf.Field, m *matrix.Matrix) (*Program, error) {
	return compileCached(f, m, true)
}

func compileCached(f gf.Field, m *matrix.Matrix, accumulate bool) (*Program, error) {
	key := cacheKey(f, m, accumulate)
	if prog, ok := progCache.Get(key); ok {
		return prog, nil
	}
	prog, err := compile(f, m, accumulate)
	if err != nil {
		return nil, err
	}
	progCache.Put(key, prog)
	return prog, nil
}

// CacheStats returns the cumulative hit and miss counts of
// CompileCached since process start.
func CacheStats() (hits, misses int64) { return progCache.Stats() }
