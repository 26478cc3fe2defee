package service

import (
	"sync"

	"mcmap/internal/core"
	"mcmap/internal/lru"
)

// cacheRegistry maps problem fingerprints (one architecture +
// application set, identified by its canonical fingerprint with the
// mapping cleared) to their persistent structural caches, which let
// /analyze requests over different mappings of the same problem — and
// every candidate of every /dse job on it — warm-start each other's
// fault-free and critical-reference passes. Scoping a cache per problem
// fingerprint is what makes sharing it sound: the cache assumes every
// lookup concerns the same compiled problem, and the daemon serves
// arbitrarily many different ones. The registry bounds the number of
// distinct problems the daemon retains state for (LRU eviction — a
// daemon fed thousands of one-shot problems must not hold every
// structural cache forever).
type cacheRegistry struct {
	mu         sync.Mutex
	structSize int
	byFP       *lru.Cache[string, *core.StructuralCache]
}

func newCacheRegistry(maxProblems, structSize int) *cacheRegistry {
	return &cacheRegistry{
		structSize: structSize,
		byFP:       lru.New[string, *core.StructuralCache](maxProblems),
	}
}

// forProblem returns (creating if needed) the structural cache of the
// problem with the given fingerprint, refreshing its recency. Evicted
// problems lose their caches; in-flight jobs holding a reference keep
// using it — the registry only controls what FUTURE requests can
// warm-start from.
func (cr *cacheRegistry) forProblem(fp string) *core.StructuralCache {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if sc, ok := cr.byFP.Get(fp); ok {
		return sc
	}
	sc := core.NewStructuralCache(cr.structSize)
	cr.byFP.Put(fp, sc)
	return sc
}

// problemStat is one problem's cache occupancy on /stats. The
// fingerprint is truncated: it identifies the problem to an operator who
// has the full prints from their own specs without bloating the payload.
type problemStat struct {
	Fingerprint   string `json:"fingerprint"`
	StructEntries int    `json:"struct_entries"`
}

// detail reports per-problem cache occupancy in recency order (most
// recently used first).
func (cr *cacheRegistry) detail() []problemStat {
	cr.mu.Lock()
	out := make([]problemStat, 0, cr.byFP.Len())
	caches := make([]*core.StructuralCache, 0, cr.byFP.Len())
	cr.byFP.Each(func(fp string, sc *core.StructuralCache) {
		if len(fp) > 16 {
			fp = fp[:16]
		}
		out = append(out, problemStat{Fingerprint: fp})
		caches = append(caches, sc)
	})
	cr.mu.Unlock()
	// Occupancies are read outside the registry lock.
	for i, sc := range caches {
		out[i].StructEntries = sc.Len()
	}
	return out
}

// len reports how many problems the registry retains caches for.
func (cr *cacheRegistry) len() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.byFP.Len()
}

// resultCache is the bounded LRU over finished /analyze responses, keyed
// by the full request fingerprint (canonical spec + resolved parameters).
// Values are the marshaled response bytes, so a warm hit skips not only
// the analysis but the whole compile-and-encode path.
type resultCache struct {
	mu     sync.Mutex
	bodies *lru.Cache[string, []byte]
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{bodies: lru.New[string, []byte](capacity)}
}

func (rc *resultCache) get(key string) ([]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bodies.Get(key)
}

func (rc *resultCache) put(key string, body []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.bodies.Put(key, body)
}

func (rc *resultCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bodies.Len()
}
