package dse

import "container/list"

// fitnessCache is one island's bounded LRU over evaluated genomes, keyed
// by the Genome.Key128 fingerprint. Crossover and mutation reproduce
// byte-identical genomes — mostly late in a run, when the SPEA2 archive
// has converged — and a hit skips the whole Decode→Apply→Compile→Analyze
// pipeline.
//
// The cache is island-private and has no lock: only the owning island's
// sequential lookup and fill phases of evaluateAll touch it, and a fleet
// worker handles its island's frames one at a time. The eviction order,
// and with it the hit/miss trajectory, is therefore a deterministic
// function of the island's seed, in-process and on a fleet worker alike.
type fitnessCache struct {
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[Key128]*list.Element
}

type cacheEntry struct {
	key Key128
	ind *Individual
}

func newFitnessCache(capacity int) *fitnessCache {
	return &fitnessCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[Key128]*list.Element),
	}
}

// get returns the cached evaluation for key, refreshing its recency.
func (c *fitnessCache) get(key Key128) (*Individual, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).ind, true
}

// put inserts (or refreshes) an evaluation, evicting the least recently
// used entry past the capacity.
func (c *fitnessCache) put(key Key128, ind *Individual) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).ind = ind
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, ind: ind})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

func (c *fitnessCache) len() int { return c.ll.Len() }

// cloneFor copies an evaluation and re-attributes it to genome g. Cached
// individuals are never handed out directly: selectors mutate the
// Fitness field in place, and an uncached run would have produced a
// distinct Individual per duplicate genome, so trajectory equivalence
// requires fresh objects on every hit. Migration relies on the same
// property: a migrant is a clone, so the sending island's archive keeps
// its own Fitness values.
//
// The GraphWCRT and Dropped slices are shared between the clone and the
// original as immutable report views: evaluation is their only writer
// (engine.evaluate builds them before the Individual escapes), so every
// later consumer — selectors, exports, migration — reads them only, and
// deep-copying them on each of the run's thousands of cache hits bought
// no isolation anyone used. Only the selector-mutated scalar fields are
// per-clone.
func (ind *Individual) cloneFor(g *Genome) *Individual {
	c := *ind
	c.Genome = g
	return &c
}
