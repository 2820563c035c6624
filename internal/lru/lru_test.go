package lru

import (
	"fmt"
	"testing"
)

func key(i int) []byte { return []byte(fmt.Sprint("k", i)) }

// TestCacheEvictionOrder pins the LRU discipline: a full cache evicts
// the least recently used entry, a Get marks its entry most recently
// used, and the survivors of a long run of inserts are the most recent
// ones.
func TestCacheEvictionOrder(t *testing.T) {
	c := New[int](3)
	for i := 0; i < 3; i++ {
		c.Put(key(i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries after 3 inserts at capacity 3", c.Len())
	}
	// Touch 0 so 1 becomes the victim, then insert 3 to evict it.
	if v, ok := c.Get(key(0)); !ok || v != 0 {
		t.Fatalf("Get(k0) = %d, %v; want 0, true", v, ok)
	}
	c.Put(key(3), 3)
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries after an eviction at capacity 3", c.Len())
	}
	for _, i := range []int{0, 2, 3} {
		if v, ok := c.Get(key(i)); !ok || v != i {
			t.Fatalf("k%d was evicted out of LRU order (Get = %d, %v)", i, v, ok)
		}
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("k1, the least recently used entry, survived the eviction")
	}

	c = New[int](2)
	for i := 0; i < 4; i++ {
		c.Put(key(i), i)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after 4 inserts at capacity 2", c.Len())
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(key(i)); ok != (i >= 2) {
			t.Fatalf("after 4 inserts at capacity 2, k%d resident = %v", i, ok)
		}
	}
}

// TestCacheDisabled pins a capacity <= 0: New returns the nil, disabled
// cache, which misses without counting, drops every value and holds
// nothing.
func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[int](capacity)
		if c != nil {
			t.Fatalf("New(%d) returned an enabled cache", capacity)
		}
		c.Put(key(1), 1)
		if _, ok := c.Get(key(1)); ok {
			t.Fatalf("capacity %d: a disabled cache returned a value", capacity)
		}
		if c.Len() != 0 {
			t.Fatalf("capacity %d: a disabled cache holds %d entries", capacity, c.Len())
		}
		if hits, misses := c.Stats(); hits != 0 || misses != 0 {
			t.Fatalf("capacity %d: a disabled cache counted hits=%d misses=%d", capacity, hits, misses)
		}
	}
}

// TestCacheCounters pins the accounting: every Get is exactly one hit
// or one miss, a Put counts nothing, and a Put of a resident key (two
// concurrent misses built the same value) replaces the value in place.
func TestCacheCounters(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get(key(1)); ok { // miss
		t.Fatal("empty cache returned a value")
	}
	c.Put(key(1), 1)
	c.Get(key(1))    // hit
	c.Get(key(2))    // miss
	c.Put(key(1), 5) // replaces in place
	if v, _ := c.Get(key(1)); v != 5 || c.Len() != 1 {
		t.Fatalf("re-Put of a resident key: value %d and %d entries, want 5 and 1", v, c.Len())
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}
