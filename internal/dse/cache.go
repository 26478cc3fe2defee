package dse

import (
	"container/list"
	"sync"
)

// fitnessStore is the bounded LRU over evaluated genomes, keyed by the
// Genome.Key128 fingerprint. Crossover and mutation reproduce
// byte-identical genomes constantly — especially late in a run, when
// the SPEA2 archive has converged — and a hit skips the whole
// Decode→Apply→Compile→Analyze pipeline.
//
// The store is goroutine-safe and striped. Every island of a run owns
// a private store (multi-island runs share entries only through the
// read-only snapshots shareCaches builds at migration barriers), while
// a cross-run FitnessStore is one store shared by concurrent runs over
// the same problem. Above fitnessShardMin entries the store splits into
// a power-of-two number of independently locked shards (selected by
// the low fingerprint bits), so concurrent runs contend on a shard, not
// on one global mutex. Each shard runs its own LRU over
// its slice of the capacity; the total bound is still the configured
// capacity (per-shard caps are the ceiling division, so the hard bound
// overshoots by at most shards-1 entries).
//
// Determinism: an island touches its store only from the sequential
// lookup and fill phases of its own evaluateAll, and the shard of a key
// is a pure function of the key, so the eviction order (and therefore
// the hit/miss trajectory) stays deterministic for a given seed; with a
// cross-run store shared by concurrent runs the hit/miss *counters*
// depend on timing, but hits replay byte-identical evaluations, so the
// optimization trajectory never does.
type fitnessStore struct {
	mask   uint64 // len(shards) - 1; shard count is a power of two
	shards []fitnessShard
}

type fitnessShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[Key128]*list.Element
}

type cacheEntry struct {
	key Key128
	ind *Individual
}

const (
	// fitnessShardMin is the capacity below which the store stays
	// single-sharded: tiny caches (tests, ablations) keep exact global
	// LRU semantics, and striping them would leave shards of a handful
	// of entries each.
	fitnessShardMin = 64
	// fitnessShards is the stripe count for full-sized stores. Must be
	// a power of two.
	fitnessShards = 8
)

func newFitnessStore(capacity int) *fitnessStore {
	shards := 1
	if capacity >= fitnessShardMin {
		shards = fitnessShards
	}
	return newFitnessStoreSharded(capacity, shards)
}

// newFitnessStoreSharded builds a store with an explicit stripe count
// (a power of two), splitting capacity evenly across stripes.
func newFitnessStoreSharded(capacity, shards int) *fitnessStore {
	if shards < 1 || shards&(shards-1) != 0 {
		panic("dse: fitness store shard count must be a power of two")
	}
	per := (capacity + shards - 1) / shards
	s := &fitnessStore{mask: uint64(shards - 1), shards: make([]fitnessShard, shards)}
	for i := range s.shards {
		s.shards[i] = fitnessShard{
			capacity: per,
			ll:       list.New(),
			byKey:    make(map[Key128]*list.Element, per),
		}
	}
	return s
}

func (s *fitnessStore) shard(key Key128) *fitnessShard {
	return &s.shards[key.Lo&s.mask]
}

// get returns the cached evaluation for key, refreshing its recency.
func (s *fitnessStore) get(key Key128) (*Individual, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byKey[key]
	if !ok {
		return nil, false
	}
	sh.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).ind, true
}

// put inserts (or refreshes) an evaluation, evicting the shard's least
// recently used entry past the shard capacity.
func (s *fitnessStore) put(key Key128, ind *Individual) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byKey[key]; ok {
		sh.ll.MoveToFront(el)
		el.Value.(*cacheEntry).ind = ind
		return
	}
	sh.byKey[key] = sh.ll.PushFront(&cacheEntry{key: key, ind: ind})
	if sh.ll.Len() > sh.capacity {
		oldest := sh.ll.Back()
		sh.ll.Remove(oldest)
		delete(sh.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// appendTo folds the store's entries into m, first entry wins. The
// traversal is deterministic (shard order, then per-shard recency
// order), and evaluation is pure per genome, so duplicate keys across
// stores carry interchangeable values either way. Used by the island
// coordinator to build cross-island snapshots at migration barriers.
func (s *fitnessStore) appendTo(m map[Key128]*Individual) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			if _, ok := m[e.key]; !ok {
				m[e.key] = e.ind
			}
		}
		sh.mu.Unlock()
	}
}

func (s *fitnessStore) size() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.ll.Len()
		sh.mu.Unlock()
	}
	return total
}

// fitnessCache is one island's view of its store plus that island's
// private adaptive-bypass state.
//
// The cache is adaptive: workloads with high mutation rates or huge
// genome spaces may never reproduce a genome, in which case every
// generation pays the key-construction and map overhead for nothing.
// note() tracks the rolling hit rate over the last bypassWindow
// generations; when it stays under bypassThreshold the cache switches
// itself off for bypassSpan generations (evaluateAll then skips lookups
// AND fills entirely), after which one probe generation decides whether
// the bypass re-arms. Bypass state is per island — each trajectory
// decides from its own hit rates — and all decisions run in the island's
// sequential merge phase, so for a single-island run the bypass
// trajectory is as deterministic as the hit trajectory.
type fitnessCache struct {
	store *fitnessStore

	// snap is the read-only cross-island snapshot consulted when the
	// store misses: multi-island runs give each island a private store
	// and merge them into one snapshot at migration barriers (see
	// shareCaches), so lookups and fills never contend across islands
	// and every island's hit/miss trajectory is deterministic. nil for
	// single-island runs, which keep the one shared store. Written only
	// at barriers, read concurrently within a leg.
	snap map[Key128]*Individual

	// rates holds the hit rates of the most recent non-bypassed
	// generations (at most bypassWindow); bypassLeft counts remaining
	// bypassed generations.
	rates      []float64
	bypassLeft int
}

const (
	// bypassWindow is how many consecutive generations of hit rates feed
	// the bypass decision.
	bypassWindow = 3
	// bypassThreshold is the mean hit rate under which the window
	// triggers a bypass.
	bypassThreshold = 0.05
	// bypassSpan is how many generations a triggered bypass lasts before
	// the cache probes again.
	bypassSpan = 8
)

func newFitnessCache(capacity int) *fitnessCache {
	return &fitnessCache{store: newFitnessStore(capacity)}
}

// islandView returns a fresh per-island view sharing the same store but
// with independent bypass state.
func (c *fitnessCache) islandView() *fitnessCache {
	return &fitnessCache{store: c.store}
}

func (c *fitnessCache) get(key Key128) (*Individual, bool) {
	if ind, ok := c.store.get(key); ok {
		return ind, true
	}
	if ind, ok := c.snap[key]; ok {
		return ind, true
	}
	return nil, false
}
func (c *fitnessCache) put(key Key128, ind *Individual) { c.store.put(key, ind) }
func (c *fitnessCache) len() int                        { return c.store.size() }

// bypassed reports whether the current generation should skip the cache.
func (c *fitnessCache) bypassed() bool { return c.bypassLeft > 0 }

// note records one generation's outcome and advances the bypass state.
// Call exactly once per evaluateAll batch, after the merge phase.
func (c *fitnessCache) note(hits, misses int) {
	if c.bypassLeft > 0 {
		c.bypassLeft--
		if c.bypassLeft == 0 {
			// Prime the window with zeros: the upcoming probe generation
			// re-triggers the bypass on its own if its hit rate is still
			// low, instead of needing a full window of cold evidence.
			c.rates = append(c.rates[:0], 0, 0)
		}
		return
	}
	total := hits + misses
	if total == 0 {
		return
	}
	c.rates = append(c.rates, float64(hits)/float64(total))
	if len(c.rates) > bypassWindow {
		c.rates = c.rates[1:]
	}
	if len(c.rates) < bypassWindow {
		return
	}
	sum := 0.0
	for _, r := range c.rates {
		sum += r
	}
	if sum/float64(len(c.rates)) < bypassThreshold {
		c.bypassLeft = bypassSpan
		c.rates = c.rates[:0]
	}
}

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
