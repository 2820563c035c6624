package xorplan

import (
	"fmt"
	"sync"
	"testing"

	"ppm/internal/gf"
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

// setCacheCapacity bounds the compiled-program LRU to n entries,
// evicting the least recently used programs if the cache already holds
// more, and returns the previous capacity; n <= 0 restores the default.
// It creates eviction pressure without hundreds of compiles.
func setCacheCapacity(n int) (prev int) {
	if n <= 0 {
		n = DefaultCacheSize
	}
	c := &progCache
	c.mu.Lock()
	prev = c.cap
	c.cap = n
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
	c.mu.Unlock()
	return prev
}

// cacheLen reports the number of programs currently resident.
func cacheLen() int {
	c := &progCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// resetCacheStats zeroes the hit/miss counters; the cached programs
// themselves stay resident.
func resetCacheStats() {
	progCache.hits.Store(0)
	progCache.misses.Store(0)
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
	defer setCacheCapacity(setCacheCapacity(3))
	resetCacheStats()

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
	if cacheLen() != 3 {
		t.Fatalf("cache holds %d entries after 3 inserts at capacity 3", cacheLen())
	}

	// Touch 0 so 1 becomes the LRU victim, then insert 3 to evict it.
	if p, err := CompileCached(f, ms[0]); err != nil || p != progs[0] {
		t.Fatalf("re-request of resident key recompiled (err=%v)", err)
	}
	if _, err := CompileCached(f, ms[3]); err != nil {
		t.Fatal(err)
	}
	if cacheLen() != 3 {
		t.Fatalf("cache holds %d entries after eviction at capacity 3", cacheLen())
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

// TestCacheCapacityShrinkEvicts pins setCacheCapacity's down-sizing:
// shrinking below the resident count evicts oldest-first immediately.
func TestCacheCapacityShrinkEvicts(t *testing.T) {
	f, err := gf.ForWord(8)
	if err != nil {
		t.Fatal(err)
	}
	defer setCacheCapacity(setCacheCapacity(4))
	for i := 0; i < 4; i++ {
		if _, err := CompileCached(f, cacheTestMatrix(f, 9100+i, 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if cacheLen() != 4 {
		t.Fatalf("cache holds %d entries, want 4", cacheLen())
	}
	setCacheCapacity(2)
	if cacheLen() != 2 {
		t.Fatalf("cache holds %d entries after shrink to 2", cacheLen())
	}
	resetCacheStats()
	// The two most recent keys survived the shrink.
	for i := 2; i < 4; i++ {
		if _, err := CompileCached(f, cacheTestMatrix(f, 9100+i, 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := CacheStats(); hits != 2 || misses != 0 {
		t.Fatalf("post-shrink residents: hits=%d misses=%d, want 2/0", hits, misses)
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
	defer setCacheCapacity(setCacheCapacity(64))
	resetCacheStats()

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
	// Racing compiles of the shared key may each count a miss (the
	// losers drop their program), but the private keys are all distinct
	// misses, and the shared key contributes at least one.
	if misses < workers*perWorker+1 {
		t.Fatalf("misses=%d below the %d distinct keys", misses, workers*perWorker+1)
	}
}
