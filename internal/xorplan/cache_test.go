package xorplan

import (
	"fmt"
	"sync"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/lru"
	"ppm/internal/matrix"
)

// cacheTestMatrix builds a matrix whose coefficients encode tag, so
// every test key is distinct from anything else the suite compiles.
func cacheTestMatrix(f gf.Field, tag, rows, cols int) *matrix.Matrix {
	mask := uint32(1)<<uint(f.W()) - 1
	m := matrix.New(f, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := uint32(tag*131+i*17+j*5+1) & mask
			if v == 0 {
				v = 1
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// freshCache swaps in an empty compiled-program cache of the given
// capacity, counters at zero, for the rest of the test. A small
// capacity creates eviction pressure without hundreds of compiles.
func freshCache(t *testing.T, capacity int) {
	prev := progCache
	progCache = lru.New[*Program](capacity)
	t.Cleanup(func() { progCache = prev })
}

// TestCacheEviction pins the LRU discipline under capacity pressure:
// filling a capacity-3 cache with four distinct keys evicts exactly
// the least recently used one, a re-request of the evicted key misses
// and recompiles, and the counters account every call as hit or miss
// with no drift.
func TestCacheEviction(t *testing.T) {
	f, err := gf.ForWord(8)
	if err != nil {
		t.Fatal(err)
	}
	freshCache(t, 3)

	ms := make([]*matrix.Matrix, 5)
	progs := make([]*Program, 5)
	for i := range ms {
		ms[i] = cacheTestMatrix(f, 9000+i, 2, 3)
	}

	// Fill to capacity: three cold misses.
	for i := 0; i < 3; i++ {
		p, err := CompileCached(f, ms[i])
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	if progCache.Len() != 3 {
		t.Fatalf("cache holds %d entries after 3 inserts at capacity 3", progCache.Len())
	}

	// Touch 0 so 1 becomes the LRU victim, then insert 3 to evict it.
	if p, err := CompileCached(f, ms[0]); err != nil || p != progs[0] {
		t.Fatalf("re-request of resident key recompiled (err=%v)", err)
	}
	if _, err := CompileCached(f, ms[3]); err != nil {
		t.Fatal(err)
	}
	if progCache.Len() != 3 {
		t.Fatalf("cache holds %d entries after eviction at capacity 3", progCache.Len())
	}

	// 0 and 2 must still be resident (hits), 1 must have been evicted
	// (a fresh miss producing a fresh Program value).
	if p, err := CompileCached(f, ms[0]); err != nil || p != progs[0] {
		t.Fatalf("key 0 was evicted out of LRU order (err=%v)", err)
	}
	if p, err := CompileCached(f, ms[2]); err != nil || p != progs[2] {
		t.Fatalf("key 2 was evicted out of LRU order (err=%v)", err)
	}
	preHits, preMisses := CacheStats()
	p1b, err := CompileCached(f, ms[1])
	if err != nil {
		t.Fatal(err)
	}
	if p1b == progs[1] {
		t.Fatal("evicted key returned the original Program pointer without a recompile miss")
	}
	hits, misses := CacheStats()
	if hits != preHits || misses != preMisses+1 {
		t.Fatalf("evicted re-request moved counters to hits=%d misses=%d from hits=%d misses=%d (want one more miss)",
			hits, misses, preHits, preMisses)
	}

	// Counter conservation: every call so far was exactly one hit or
	// one miss.
	const calls = 8
	if hits+misses != calls {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d calls", hits, misses, hits+misses, calls)
	}
	if hits != 3 || misses != 5 {
		t.Fatalf("hits=%d misses=%d, want 3/5", hits, misses)
	}
}

// TestCacheConcurrentCounters hammers one cold key plus per-goroutine
// keys from many goroutines (run with -race): afterwards every call is
// accounted exactly once and the shared key is resident exactly once.
func TestCacheConcurrentCounters(t *testing.T) {
	f, err := gf.ForWord(8)
	if err != nil {
		t.Fatal(err)
	}
	freshCache(t, 64)

	shared := cacheTestMatrix(f, 9200, 3, 4)
	const workers = 8
	const perWorker = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*(perWorker+1))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := CompileCached(f, shared); err != nil {
				errs <- fmt.Errorf("shared: %w", err)
			}
			for i := 0; i < perWorker; i++ {
				if _, err := CompileCached(f, cacheTestMatrix(f, 9300+g*perWorker+i, 2, 2)); err != nil {
					errs <- fmt.Errorf("private: %w", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := CacheStats()
	const calls = workers * (perWorker + 1)
	if hits+misses != calls {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d calls", hits, misses, hits+misses, calls)
	}
	// Racing misses on the shared key may each count, each caller
	// keeping its own equivalent program, but the private keys are all
	// distinct misses, and the shared key contributes at least one.
	if misses < workers*perWorker+1 {
		t.Fatalf("misses=%d below the %d distinct keys", misses, workers*perWorker+1)
	}
}
