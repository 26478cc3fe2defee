package service

import (
	"container/list"
	"sync"

	"mcmap/internal/core"
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
	max        int
	structSize int
	ll         *list.List // front = most recently used
	byFP       map[string]*list.Element
}

type registryEntry struct {
	fp         string
	structural *core.StructuralCache
}

func newCacheRegistry(maxProblems, structSize int) *cacheRegistry {
	return &cacheRegistry{
		max:        maxProblems,
		structSize: structSize,
		ll:         list.New(),
		byFP:       make(map[string]*list.Element, maxProblems),
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
	if el, ok := cr.byFP[fp]; ok {
		cr.ll.MoveToFront(el)
		return el.Value.(*registryEntry).structural
	}
	sc := core.NewStructuralCache(cr.structSize)
	cr.byFP[fp] = cr.ll.PushFront(&registryEntry{fp: fp, structural: sc})
	if cr.ll.Len() > cr.max {
		oldest := cr.ll.Back()
		cr.ll.Remove(oldest)
		delete(cr.byFP, oldest.Value.(*registryEntry).fp)
	}
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
	entries := make([]*registryEntry, 0, cr.ll.Len())
	for el := cr.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*registryEntry))
	}
	cr.mu.Unlock()
	out := make([]problemStat, 0, len(entries))
	for _, e := range entries {
		fp := e.fp
		if len(fp) > 16 {
			fp = fp[:16]
		}
		out = append(out, problemStat{Fingerprint: fp, StructEntries: e.structural.Len()})
	}
	return out
}

// len reports how many problems the registry retains caches for.
func (cr *cacheRegistry) len() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.ll.Len()
}

// resultCache is the bounded LRU over finished /analyze responses, keyed
// by the full request fingerprint (canonical spec + resolved parameters).
// Values are the marshaled response bytes, so a warm hit skips not only
// the analysis but the whole compile-and-encode path.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	byKey map[string]*list.Element
}

type resultEntry struct {
	key  string
	body []byte
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		max:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

func (rc *resultCache) get(key string) ([]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.byKey[key]
	if !ok {
		return nil, false
	}
	rc.ll.MoveToFront(el)
	return el.Value.(*resultEntry).body, true
}

func (rc *resultCache) put(key string, body []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.byKey[key]; ok {
		rc.ll.MoveToFront(el)
		el.Value.(*resultEntry).body = body
		return
	}
	rc.byKey[key] = rc.ll.PushFront(&resultEntry{key: key, body: body})
	if rc.ll.Len() > rc.max {
		oldest := rc.ll.Back()
		rc.ll.Remove(oldest)
		delete(rc.byKey, oldest.Value.(*resultEntry).key)
	}
}

func (rc *resultCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ll.Len()
}
