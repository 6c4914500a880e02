// Package lru is the bounded, recency-ordered map behind every in-memory
// cache tier in LISA: the snapshot cache, the solver result cache, and the
// scheduler's fingerprint cache. It does no locking of its own — each
// caller already holds a lock around its lookups, so a second, internal
// lock would only add a round trip.
package lru

import "container/list"

// Cache maps keys to values, evicting the least recently used entry once
// more than its capacity are resident. The zero value is not usable; use
// New. Not safe for concurrent use.
type Cache[K comparable, V any] struct {
	capacity  int
	items     map[K]*list.Element
	order     *list.List // front = most recently used; values are *entry[K, V]
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries (at least
// one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: max(capacity, 1),
		items:    map[K]*list.Element{},
		order:    list.New(),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing any
// value already there. Inserting past capacity evicts the least recently
// used entry; evicted reports whether that happened.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() <= c.capacity {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*entry[K, V]).key)
	c.evictions++
	return true
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Evictions returns how many entries capacity pressure has pushed out
// since the cache was created (Clear does not count).
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

// Keys lists the resident keys, most recently used first.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).key)
	}
	return out
}

// Clear drops every entry; the eviction count is kept.
func (c *Cache[K, V]) Clear() {
	c.items = map[K]*list.Element{}
	c.order.Init()
}
