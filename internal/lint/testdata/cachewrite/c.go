// Package cachewrite is golden-test input for the cachewrite analyzer.
// It only needs to parse; it is never compiled.
package cachewrite

type entry struct {
	n    int
	vals []int
}

type lru struct {
	m map[string]*entry
}

func (s *lru) get(k string) (*entry, bool) { e, ok := s.m[k]; return e, ok }
func (s *lru) lookup(k string) *entry      { return s.m[k] }
func (s *lru) Get(k string) (*entry, bool) { e, ok := s.m[k]; return e, ok }

func writeAfterLookup(structuralCache *lru) {
	e := structuralCache.lookup("k")
	e.n = 1 // want `write through "e"`
}

func writeAfterGet(memo *lru) {
	e, ok := memo.get("k")
	if ok {
		e.vals[0] = 2 // want `write through "e"`
	}
}

func writeAfterLRUGet(bodyLRU *lru) {
	e, _ := bodyLRU.Get("k")
	e.vals = nil // want `write through "e"`
}

func rebindIsFine(fitnessStore *lru) {
	e := fitnessStore.lookup("k")
	e = &entry{}
	e.n = 1
	_ = e
}

func deepCopyIsFine(memoCache *lru) int {
	e := memoCache.lookup("k")
	c := *e
	c.n = 1
	return c.n
}

func readsAreFine(store *lru) int {
	e := store.lookup("k")
	return e.n + len(e.vals)
}

func unrelatedReceiversAreFine(other *lru) {
	// The receiver name carries no cache hint, so the heuristic stays
	// quiet; the caches themselves live behind named fields.
	e := other.lookup("k")
	e.n = 3
}

func allowedWrite(sharedCache *lru) {
	e := sharedCache.lookup("k")
	e.n = 4 //lint:allow cachewrite entry is still private to this goroutine before store
}
