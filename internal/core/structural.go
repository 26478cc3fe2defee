package core

import (
	"encoding/binary"
	"sync"

	"mcmap/internal/lru"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// This file implements the cross-candidate structural cache: warm-starting
// the expensive cold passes of Analyze — the fault-free pass and the
// all-critical reference — from a *sibling* candidate's converged results.
//
// The observation: GA offspring rarely repeat a whole genome (which is why
// whole-genome fitness memoization barely pays), but they constantly
// repeat the genome's STRUCTURE — the hardening decisions and the drop
// set, which determine the compiled job set — while differing only in
// task-to-processor bindings. Two such siblings compile to systems with
// the same node sequence (same tasks, releases, priorities, deadlines,
// edge topology; priorities are assigned by mapping-independent policies)
// and differ only in the per-node processor assignment and the
// processor-scaled execution times.
//
// For a clean node — one residing on a processor whose resident set is
// identical in both systems, with unchanged execution intervals and no
// moved predecessor — every term of the holistic equations is literally
// the same in both systems: the same-processor peer set, the peers'
// priorities, the non-preemptive flag, the in-edge delays (both endpoints
// on the same processors) and the activation sources. So a sibling's
// converged Result is a valid warm-start baseline under the dirty set
//
//	dirty(i) = exec_new[i] != exec_old[i]
//	        ∨ node i's processor's resident set changed
//	        ∨ some predecessor of i moved (its in-edge delay may change),
//
// and sched.AnalyzeFrom's closure machinery reproduces the cold fixed
// point exactly (DESIGN.md §7.6 gives the full argument). Arbitrated
// fabrics and divergent baselines fall back to cold runs inside
// AnalyzeFrom, so a structural warm start is always safe to attempt.
//
// A StructuralCache must not be shared across different application sets,
// architectures or priority policies: the fingerprint canonicalizes
// everything that varies across candidates of one design-space
// exploration (job set, static per-job attributes, edge topology and
// sizes, drop set), and relies on the surrounding run for the rest.

// StructuralCache is a bounded, goroutine-safe LRU of per-structure
// analysis baselines, keyed by the canonical structural fingerprint of
// the compiled system plus drop set. Wire one into Config.Structural to
// let sibling candidates warm-start each other's fault-free and
// critical-reference passes. One mutex guards the LRU: Analyze takes it
// once to look up and once to store, next to passes that cost far more.
type StructuralCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *structEntry]
}

// structEntry is one cached structure's baselines. Entries are immutable
// after insertion; concurrent readers share them.
type structEntry struct {
	key string
	// procOf is the per-node processor assignment of the cached sibling.
	procOf []model.ProcID
	// normal/normalExec are the fault-free pass baseline.
	normal     *sched.Result
	normalExec []sched.ExecBounds
	// critical/criticalExec are the all-critical reference baseline
	// (nil when the cached run did not compute one).
	critical     *sched.Result
	criticalExec []sched.ExecBounds
}

// NewStructuralCache returns a cache bounded to capacity entries;
// capacity <= 0 selects the default (512).
func NewStructuralCache(capacity int) *StructuralCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &StructuralCache{entries: lru.New[string, *structEntry](capacity)}
}

// lookup returns the cached entry for key, refreshing its recency.
func (c *StructuralCache) lookup(key string) *structEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _ := c.entries.Get(key)
	return e
}

// store inserts an entry unless the key is already present, leaving a
// present entry and its recency untouched (first entry wins: under
// parallel evaluation several siblings may race to fill the same
// structure, and any converged baseline serves equally).
func (c *StructuralCache) store(e *structEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.entries.Contains(e.key) {
		c.entries.Put(e.key, e)
	}
}

// Len reports the number of cached structures.
func (c *StructuralCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// structuralKey serializes everything of the compiled system that must
// coincide for a sibling warm start to be exact, EXCLUDING the
// mapping-dependent parts (processor assignment, processor-scaled
// execution times, edge delays): those are handled by the dirty set.
// Equal keys therefore certify equal node sequences with equal static
// per-node attributes and equal edge topology.
func structuralKey(sys *platform.System, dropped DropSet) string {
	buf := make([]byte, 0, 16+len(sys.Nodes)*32)
	var tmp [binary.MaxVarintLen64]byte
	num := func(v int64) {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], v)]...)
	}
	str := func(s string) {
		num(int64(len(s)))
		buf = append(buf, s...)
	}
	num(int64(len(sys.Nodes)))
	num(int64(len(sys.Arch.Procs)))
	num(int64(sys.Hyperperiod))
	for _, n := range sys.Nodes {
		str(string(n.Task.ID))
		num(int64(n.Task.Kind))
		buf = append(buf, boolBit(n.Task.Passive)|boolBit(n.Task.ReExecutable())<<1)
		num(int64(n.Instance))
		num(int64(n.Release))
		num(int64(n.AbsDeadline))
		num(int64(n.Priority))
		num(int64(len(n.Out)))
		for _, e := range n.Out {
			num(int64(e.To))
			num(e.Size)
		}
	}
	// Drop membership per graph, in graph order (canonical without
	// sorting name strings).
	for _, g := range sys.Apps.Graphs {
		buf = append(buf, boolBit(dropped[g.Name]))
	}
	return string(buf)
}

func boolBit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// usable reports whether the entry can warm-start an analysis of sys:
// shape-compatible lengths and in-range processor ids. Equal keys make
// this true by construction; the checks are defensive.
func (e *structEntry) usable(sys *platform.System) bool {
	if len(e.procOf) != len(sys.Nodes) || len(e.normalExec) != len(sys.Nodes) {
		return false
	}
	nproc := model.ProcID(len(sys.Arch.Procs))
	for _, p := range e.procOf {
		if p < 0 || p >= nproc {
			return false
		}
	}
	return true
}

// structuralDirty computes the warm-start dirty set against a sibling:
// changed execution intervals, every node on a processor whose resident
// set differs between the two mappings, and every graph successor of a
// moved node (its in-edge delay may have changed).
func structuralDirty(sys *platform.System, oldProc []model.ProcID, oldExec, newExec []sched.ExecBounds) []bool {
	n := len(sys.Nodes)
	dirty := make([]bool, n)
	changed := make([]bool, len(sys.Arch.Procs))
	moved := false
	for i, nd := range sys.Nodes {
		if newExec[i] != oldExec[i] {
			dirty[i] = true
		}
		if nd.Proc != oldProc[i] {
			moved = true
			dirty[i] = true
			changed[nd.Proc] = true
			changed[oldProc[i]] = true
			for _, e := range nd.Out {
				dirty[e.To] = true
			}
		}
	}
	if moved {
		for i, nd := range sys.Nodes {
			if changed[nd.Proc] {
				dirty[i] = true
			}
		}
	}
	return dirty
}

// procsOf snapshots the per-node processor assignment.
func procsOf(sys *platform.System) []model.ProcID {
	procs := make([]model.ProcID, len(sys.Nodes))
	for i, n := range sys.Nodes {
		procs[i] = n.Proc
	}
	return procs
}

// structuralSession carries one Analyze call's interaction with the
// cache: the resolved sibling entry (nil on a miss) and the key to store
// the fresh baselines under afterwards.
type structuralSession struct {
	cache *StructuralCache
	key   string
	hit   *structEntry
}

// openStructural resolves the cache for one Analyze call. Returns nil
// when structural caching is off or the backend cannot warm-start.
func openStructural(cfg Config, analyzer sched.Analyzer, sys *platform.System, dropped DropSet) *structuralSession {
	if cfg.Structural == nil {
		return nil
	}
	if _, ok := analyzer.(sched.IncrementalAnalyzer); !ok {
		return nil
	}
	s := &structuralSession{cache: cfg.Structural, key: structuralKey(sys, dropped)}
	if e := cfg.Structural.lookup(s.key); e != nil && e.usable(sys) {
		s.hit = e
	}
	return s
}

// warmNormal warm-starts the fault-free pass from the sibling baseline.
// A (nil, nil) return means "no usable baseline — run cold".
func (s *structuralSession) warmNormal(analyzer sched.Analyzer, sys *platform.System, exec []sched.ExecBounds) (*sched.Result, error) {
	if s == nil || s.hit == nil || s.hit.normal == nil {
		return nil, nil
	}
	return s.warmStart(analyzer, sys, exec, s.hit.normal, s.hit.normalExec)
}

// warmCritical warm-starts the all-critical reference pass likewise.
func (s *structuralSession) warmCritical(analyzer sched.Analyzer, sys *platform.System, exec []sched.ExecBounds) (*sched.Result, error) {
	if s == nil || s.hit == nil || s.hit.critical == nil {
		return nil, nil
	}
	if len(s.hit.criticalExec) != len(exec) {
		return nil, nil
	}
	return s.warmStart(analyzer, sys, exec, s.hit.critical, s.hit.criticalExec)
}

// warmStart runs one pass through AnalyzeFrom against a sibling baseline.
func (s *structuralSession) warmStart(analyzer sched.Analyzer, sys *platform.System, exec []sched.ExecBounds, baseline *sched.Result, baseExec []sched.ExecBounds) (*sched.Result, error) {
	inc := analyzer.(sched.IncrementalAnalyzer)
	dirty := structuralDirty(sys, s.hit.procOf, baseExec, exec)
	return inc.AnalyzeFrom(sys, exec, baseline, dirty)
}

// seal stores this call's converged baselines for future siblings (only
// on a miss; hits leave the cached entry in place).
func (s *structuralSession) seal(sys *platform.System, normal *sched.Result, normalExec []sched.ExecBounds, critical *sched.Result, criticalExec []sched.ExecBounds) {
	if s == nil || s.hit != nil {
		return
	}
	s.cache.store(&structEntry{
		key:          s.key,
		procOf:       procsOf(sys),
		normal:       normal,
		normalExec:   normalExec,
		critical:     critical,
		criticalExec: criticalExec,
	})
}
