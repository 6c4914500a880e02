package lru

import (
	"slices"
	"testing"
)

// TestGetPromotes: a hit moves its entry to the front, so the next
// eviction takes the entry that was not touched.
func TestGetPromotes(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if got := c.Keys(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("order after Get(a) = %v, want [a b]", got)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived: the promoted a should have outlived it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted a was evicted")
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on a key never stored")
	}
}

// TestTailEvictionOrder: past capacity, entries leave strictly in
// least-recently-used order, one per insert, and each is counted.
func TestTailEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	var gone []string
	for _, k := range []string{"d", "e", "f"} {
		before := c.Keys()
		if !c.Put(k, 0) {
			t.Fatalf("inserting %s past capacity evicted nothing", k)
		}
		gone = append(gone, before[len(before)-1])
		if c.Len() != 3 {
			t.Fatalf("Len = %d after inserting %s, want 3", c.Len(), k)
		}
	}
	if !slices.Equal(gone, []string{"a", "b", "c"}) {
		t.Fatalf("eviction order = %v, want [a b c]", gone)
	}
	if c.Evictions() != 3 {
		t.Fatalf("Evictions = %d, want 3", c.Evictions())
	}
	for _, k := range gone {
		if _, ok := c.Get(k); ok {
			t.Fatalf("evicted %s still served", k)
		}
	}
}

// TestPutReplacesInPlace: storing an existing key swaps its value and
// promotes it without growing the cache or evicting anything.
func TestPutReplacesInPlace(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Put("a", 10) {
		t.Fatal("replacing a resident key evicted")
	}
	if c.Len() != 2 || c.Evictions() != 0 {
		t.Fatalf("Len = %d, Evictions = %d; want 2 and 0", c.Len(), c.Evictions())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) = %d, want the replacement 10", v)
	}
	c.Put("b", 20)
	if got := c.Keys(); !slices.Equal(got, []string{"b", "a"}) {
		t.Fatalf("order = %v, want [b a]", got)
	}
}

// TestKeysRecencyOrder: Keys lists most recently used first, counting
// inserts, replaces, and hits as uses.
func TestKeysRecencyOrder(t *testing.T) {
	c := New[string, int](4)
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, 0)
	}
	c.Get("b")
	c.Put("c", 1)
	if got := c.Keys(); !slices.Equal(got, []string{"c", "b", "d", "a"}) {
		t.Fatalf("Keys = %v, want [c b d a]", got)
	}
	c.Clear()
	if c.Len() != 0 || len(c.Keys()) != 0 {
		t.Fatalf("Clear left %d entries", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit after Clear")
	}
}

// TestCapacityOne: a one-entry cache keeps only the latest key; a
// non-positive capacity behaves as one.
func TestCapacityOne(t *testing.T) {
	for _, capacity := range []int{1, 0, -5} {
		c := New[string, int](capacity)
		c.Put("a", 1)
		c.Put("b", 2)
		if got := c.Keys(); !slices.Equal(got, []string{"b"}) {
			t.Fatalf("cap %d: Keys = %v, want [b]", capacity, got)
		}
		c.Put("b", 3)
		if v, ok := c.Get("b"); !ok || v != 3 || c.Evictions() != 1 {
			t.Fatalf("cap %d: Get(b) = %d, %v with %d evictions; want 3, true, 1", capacity, v, ok, c.Evictions())
		}
	}
}
