package dse

import "mcmap/internal/lru"

// fitnessCache is one island's bounded LRU over evaluated genomes, keyed
// by the Genome.Key128 fingerprint. Crossover and mutation reproduce
// byte-identical genomes — mostly late in a run, when the SPEA2 archive
// has converged — and a hit skips the whole Decode→Apply→Compile→Analyze
// pipeline.
//
// The cache is island-private and needs no lock: only the owning island's
// sequential lookup and fill phases of evaluateAll touch it, and a fleet
// worker handles its island's frames one at a time. The eviction order,
// and with it the hit/miss trajectory, is therefore a deterministic
// function of the island's seed, in-process and on a fleet worker alike.
type fitnessCache = lru.Cache[Key128, *Individual]

func newFitnessCache(capacity int) *fitnessCache {
	return lru.New[Key128, *Individual](capacity)
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
