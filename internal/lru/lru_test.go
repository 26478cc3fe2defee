package lru

import (
	"reflect"
	"testing"
)

func TestCacheLRU(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if got, ok := c.Get("a"); !ok || got != 1 {
		t.Fatal("expected to find a")
	}
	c.Put("d", 3) // evicts b (least recently used after the get above)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Replacing an existing key must not grow the cache.
	c.Put("a", 9)
	if c.Len() != 2 {
		t.Fatalf("len after replace = %d, want 2", c.Len())
	}
	if got, _ := c.Get("a"); got != 9 {
		t.Fatal("replace did not update the value")
	}
}

// TestCacheEvictionOrder checks that Put refreshes a replaced key, that
// Contains does not refresh, and that Each walks most recently used
// first.
func TestCacheEvictionOrder(t *testing.T) {
	c := New[int, string](3)
	c.Put(1, "one")
	c.Put(2, "two")
	c.Put(3, "three")
	c.Put(1, "uno") // refreshes 1: order is now 1, 3, 2
	if !c.Contains(2) {
		t.Fatal("2 should be present")
	}
	c.Put(4, "four") // evicts 2 despite the Contains above
	if c.Contains(2) {
		t.Fatal("Contains refreshed 2; it should have been evicted")
	}
	var keys []int
	var vals []string
	c.Each(func(k int, v string) {
		keys = append(keys, k)
		vals = append(vals, v)
	})
	if want := []int{4, 1, 3}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("Each order = %v, want %v", keys, want)
	}
	if want := []string{"four", "uno", "three"}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("Each values = %v, want %v", vals, want)
	}
	if _, ok := New[int, int](1).Get(7); ok {
		t.Fatal("empty cache reported a hit")
	}
}
