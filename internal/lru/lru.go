// Package lru is the bounded, mutex-guarded least-recently-used cache
// behind the decode plan cache (core.Decoder), the repair plan cache
// (repair.Planner) and the compiled-program cache
// (xorplan.CompileCached). Keys are byte slices, so a caller can render
// its key into a stack buffer and a hit allocates nothing.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps byte keys to values, evicting the least recently used
// entry past its capacity. A nil *Cache is a disabled cache: Get always
// misses without counting, Put drops the value and Stats reports zeros.
// A Cache is safe for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    list.List // Front is most recently used; values are *entry[V]
	hits     int64
	misses   int64
}

type entry[V any] struct {
	key   string
	value V
}

// New returns a cache holding up to capacity entries, or nil (a
// disabled cache) when capacity <= 0.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[V]{capacity: capacity, entries: make(map[string]*list.Element, capacity)}
}

// Get returns the value cached under key and marks it most recently
// used, counting a hit or a miss.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		c.order.MoveToFront(elem)
		c.hits++
		return elem.Value.(*entry[V]).value, true
	}
	c.misses++
	return zero, false
}

// Put caches value under key, evicting the least recently used entry
// when full. A key already present (two concurrent misses built the
// same value) takes the newer value.
func (c *Cache[V]) Put(key []byte, value V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		elem.Value.(*entry[V]).value = value
		c.order.MoveToFront(elem)
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
	}
	k := string(key)
	c.entries[k] = c.order.PushFront(&entry[V]{key: k, value: value})
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the hit and miss counters. Misses count the lookups
// that found nothing, which is the number of values the caller built.
func (c *Cache[V]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
