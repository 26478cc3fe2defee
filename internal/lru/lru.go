// Package lru provides the one capacity-bounded least-recently-used map
// every cache in the module is built on: the island-private fitness memo,
// core.StructuralCache and the daemon's result and per-problem caches.
//
// A Cache has no lock. A cache owned by one goroutine at a time (the
// fitness memo) uses it directly; a shared cache guards it with its own
// single mutex.
package lru

import "container/list"

// Cache maps keys to values and, past its capacity, evicts the least
// recently used entry. Get and Put count as uses; Contains, Len and Each
// do not.
type Cache[K comparable, V any] struct {
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key   K
	value V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[K]*list.Element),
	}
}

// Get returns the value cached under key, refreshing its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).value, true
}

// Contains reports whether key is cached, without refreshing it.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.byKey[key]
	return ok
}

// Put inserts value under key, or replaces and refreshes the value
// already there, then evicts the least recently used entry past the
// capacity.
func (c *Cache[K, V]) Put(key K, value V) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).value = value
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry[K, V]{key: key, value: value})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry[K, V]).key)
	}
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Each calls fn on every entry, most recently used first.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.value)
	}
}
