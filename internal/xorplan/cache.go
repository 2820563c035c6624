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

// The cache key is the exact encoded matrix — width, dimensions and
// every coefficient — not a digest, so distinct matrices can never
// collide into the wrong program.
func cacheKey(f gf.Field, m *matrix.Matrix) []byte {
	rows, cols := m.Rows(), m.Cols()
	buf := make([]byte, 0, 12+4*rows*cols)
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
	key := cacheKey(f, m)
	if prog, ok := progCache.Get(key); ok {
		return prog, nil
	}
	prog, err := Compile(f, m)
	if err != nil {
		return nil, err
	}
	progCache.Put(key, prog)
	return prog, nil
}

// CacheStats returns the cumulative hit and miss counts of
// CompileCached since process start.
func CacheStats() (hits, misses int64) { return progCache.Stats() }
