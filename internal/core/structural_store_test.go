package core

import "testing"

// TestStructuralStoreFirstEntryWins pins store's contract: a second store
// of a present structure keeps the first entry and leaves its recency
// alone, so the re-stored structure is still the first to be evicted.
func TestStructuralStoreFirstEntryWins(t *testing.T) {
	c := NewStructuralCache(2)
	first := &structEntry{key: "a"}
	c.store(first)
	c.store(&structEntry{key: "a"})
	if got := c.lookup("a"); got != first {
		t.Fatal("second store replaced the first entry")
	}

	c = NewStructuralCache(2)
	c.store(&structEntry{key: "a"})
	c.store(&structEntry{key: "b"})
	c.store(&structEntry{key: "a"}) // must not refresh a
	c.store(&structEntry{key: "c"}) // so a, not b, is evicted
	if c.lookup("a") != nil {
		t.Fatal("second store refreshed the entry's recency")
	}
	if c.lookup("b") == nil || c.lookup("c") == nil {
		t.Fatal("b and c should both be cached")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}
