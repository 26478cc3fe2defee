package dse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"mcmap/internal/core"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/power"
	"mcmap/internal/reliability"
	"mcmap/internal/validate"
	"mcmap/internal/workpool"
)

// infeasiblePenalty is the base objective value of infeasible candidates;
// it dominates every physical power figure, so feasible designs always
// Pareto-dominate infeasible ones, while the overrun term still provides
// a gradient towards feasibility (the paper's "exceedingly bad fitness").
const infeasiblePenalty = 1e6

// Individual is one evaluated candidate.
type Individual struct {
	Genome *Genome
	// Objectives is (expected power, -service); both minimized.
	Objectives Objectives
	// Fitness is selector-internal (SPEA2: R + D).
	Fitness float64
	// Power is the expected power in watts (only meaningful when
	// Feasible).
	Power float64
	// Service is the retained QoS sum.
	Service float64
	// Feasible: deadlines hold (normal + critical scenarios per the
	// paper's semantics) and reliability constraints are met.
	Feasible bool
	// FeasibleNoDrop: same design remains feasible when task dropping is
	// disabled (evaluated only when Options.TrackDroppingGain).
	FeasibleNoDrop bool
	// GraphWCRT is the per-graph analyzed WCRT.
	GraphWCRT []model.Time
	// Dropped is the decoded drop set (names).
	Dropped []string
	// scen tallies this candidate's scenario-analysis counters. Folded
	// into Stats only for candidates that actually ran the backend —
	// cache replays carry their original tally but are not re-counted.
	scen scenarioTally
}

// scenarioTally aggregates the Report scenario and structural-cache
// counters of one evaluation (both the dropping and the no-dropping
// analysis when TrackDroppingGain doubles them up).
type scenarioTally struct {
	analyzed, deduped, pruned, incremental int
	structHits, structMisses, warmJobs     int
}

func (t *scenarioTally) add(rep *core.Report) {
	t.analyzed += rep.ScenariosAnalyzed
	t.deduped += rep.ScenariosDeduped
	t.pruned += rep.ScenariosPruned
	t.incremental += rep.ScenariosIncremental
	t.structHits += rep.StructHits
	t.structMisses += rep.StructMisses
	t.warmJobs += rep.StructWarmJobs
}

// Options tunes the GA run. The paper uses population = parents =
// offspring = 100 and 5000 generations; tests and benches use far
// smaller values.
type Options struct {
	PopSize     int
	ArchiveSize int
	Generations int
	Seed        int64
	// MutationRate is the per-locus mutation probability (default 0.08).
	MutationRate float64
	// Workers is the total worker budget of the run (default GOMAXPROCS).
	// It bounds parallel fitness evaluations AND the scenario fan-out
	// nested inside each one: all layers draw from one shared workpool,
	// so a 100-candidate generation can never oversubscribe to Workers²
	// goroutines.
	Workers int
	// Islands runs that many SPEA-II populations concurrently on the
	// shared worker budget (default 1). Each island evolves its own
	// trajectory from an independent RNG stream derived from Seed (see
	// islandSeeds: island 0 keeps Seed verbatim, so Islands=1 reproduces
	// the single-trajectory engine byte-for-byte), each island owns a
	// private fitness cache and a private structural cache, and every
	// MigrationInterval generations each island's Pareto elites migrate
	// to its ring neighbour. The final Result merges all islands
	// through one last environmental selection; History carries every
	// island's GenStats (tagged with GenStat.Island) and
	// Stats.IslandStats the per-island summaries.
	Islands int
	// MigrationInterval is the number of generations each island evolves
	// between migration barriers (default 10). Irrelevant at Islands=1.
	MigrationInterval int
	// IslandHosts distributes a multi-island run over a fleet of TCP
	// workers instead of running the islands in this process: island i
	// connects to IslandHosts[i mod len(IslandHosts)], each address
	// serving island legs via ServeIslands (mcmapd -worker).
	// Orchestration, seeds and merge order mirror the in-process mode,
	// so the final archive stays byte-identical to the in-process
	// islands=K run, and so are the per-island fitness-cache counters
	// (at Workers=1, every counter). Requires a built-in Selector.
	// Connections are persistent with deadline-based heartbeats; a lost
	// worker is re-dialed with exponential backoff and replayed, and on
	// unrecoverable loss the coordinator deterministically re-runs that
	// island locally (counted in Stats.IslandTakeovers), so results never
	// depend on which worker died. Ignored at Islands=1; not supported
	// with checkpoint/resume.
	IslandHosts []string
	// DisableBatch is a legacy field and has no effect.
	//
	// Deprecated: DisableBatch is ignored; every candidate is evaluated
	// on its own.
	DisableBatch bool
	// Pool optionally shares a caller-owned worker budget across several
	// Optimize runs — the experiments grid runs its seed × strategy ×
	// benchmark cells concurrently against one pool so the whole grid
	// saturates the machine without oversubscribing it. When nil (the
	// default), Optimize creates a private pool of Workers slots. Sharing
	// a pool never changes any run's trajectory, only its scheduling.
	Pool *workpool.Pool
	// FitnessCacheSize bounds the LRU fitness-memoization cache in
	// genomes. Zero selects the default (4096); negative disables
	// memoization. Duplicate genomes produced by crossover/mutation and
	// the persistent SPEA2 archive then skip Decode→Apply→Compile→
	// Analyze entirely; hit/miss counts surface in Stats and GenStat.
	// Memoization never changes the optimization trajectory: evaluation
	// is deterministic per genome, and cache hits are replayed as fresh
	// Individual values. Every island owns a private cache of this
	// size.
	FitnessCacheSize int
	// StructuralCacheSize bounds the cross-candidate structural cache in
	// structures (core.Config.Structural). Zero selects the default
	// (512); negative disables. Sibling candidates sharing hardening and
	// drop decisions but differing in mapping then warm-start each
	// other's fault-free and critical-reference passes; the reported
	// bounds are identical to cold analyses. Counters surface in
	// Stats.StructHits/StructMisses/WarmStartJobs and per generation in
	// GenStat.
	StructuralCacheSize int
	// Selector is the environmental selection strategy (default SPEA2,
	// as in the paper).
	Selector Selector
	// TrackDroppingGain additionally evaluates every candidate with
	// dropping disabled, to measure the Section 5.2 rescue ratio. It
	// doubles the analysis cost.
	TrackDroppingGain bool
	// PruneDominated enables scenario dominance pruning inside every
	// fitness evaluation (core.Config.PruneDominated): dominated fault
	// scenarios are skipped without changing WCRTs or verdicts, which is
	// exactly what the GA consumes. Off by default for paper fidelity.
	PruneDominated bool
	// DisableCompiled forces the pointer-graph analysis engine
	// (core.Config.Compiled = false) for every fitness evaluation. The
	// compiled columnar kernel is on by default and produces
	// byte-identical Reports; this switch exists for benchmarking the
	// two engines against each other and as an escape hatch.
	DisableCompiled bool
	// DisableDropping forces every droppable application to be kept
	// (T_d is always empty) — the "without task dropping" baseline.
	DisableDropping bool
	// DisableRepair skips the randomized repair (ablation); infeasible
	// candidates are only penalized.
	DisableRepair bool
	// NoSeeds disables the heuristic seed genomes in the initial
	// population (ablation).
	NoSeeds bool
	// Context, when non-nil, cancels the run: islands check it between
	// generations and between candidate claims, and it flows into
	// core.Config.Ctx so in-flight analyses stop claiming scenario
	// chunks. Optimize then returns an error wrapping ctx.Err(), with
	// every shared-pool slot released by the time it returns. A run that
	// completes before cancellation is byte-identical to an uncancelled
	// one. Distributed runs (IslandHosts) check the context only at leg
	// barriers.
	Context context.Context
	// Progress, when non-nil, receives every generation's GenStat right
	// after it is recorded, before the next generation starts — the
	// streaming-progress hook of the analysis service. The engine
	// serializes calls (multi-island runs record concurrently, but
	// Progress never runs reentrantly); the callback must not block for
	// long, since it runs on the island coordinator. Ring-migration
	// annotations (GenStat.MigrantsIn) land in Result.History after the
	// callback has fired for the barrier generation. Not invoked by
	// distributed runs (IslandHosts), whose workers own their histories
	// until the finish.
	Progress func(GenStat)
	// CheckpointSink, when non-nil, receives the full run state at every
	// migration barrier (for single-island runs: every
	// MigrationInterval generations), after migration. The sink runs
	// synchronously on the coordinator and must Encode (or otherwise
	// deep-copy) the checkpoint before returning; a non-nil error aborts
	// the run. Not supported with IslandHosts.
	CheckpointSink func(*Checkpoint) error
	// Resume restores a run from a checkpoint instead of initializing
	// generation 0. The problem fingerprint, island count and every
	// trajectory-relevant option must match the checkpointed run (see
	// checkResume); the resumed run's final archive is then
	// byte-identical to the uninterrupted run's — only cache counters
	// may differ, since caches restart cold. Not supported with
	// IslandHosts.
	Resume *Checkpoint
}

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 100
	}
	if o.ArchiveSize <= 0 {
		o.ArchiveSize = o.PopSize
	}
	if o.Generations <= 0 {
		o.Generations = 100
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.08
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Islands <= 0 {
		o.Islands = 1
	}
	if o.MigrationInterval <= 0 {
		o.MigrationInterval = 10
	}
	if o.FitnessCacheSize == 0 {
		o.FitnessCacheSize = 4096
	}
	if o.Selector == nil {
		o.Selector = SPEA2{}
	}
	return o
}

// GenStat is one generation's progress record.
type GenStat struct {
	Gen int
	// Island is the index of the island that produced this generation
	// (always 0 in single-island runs).
	Island      int
	BestPower   float64
	Feasible    int
	ArchiveSize int
	// CacheHits and CacheMisses are this generation's fitness-cache
	// outcomes (both zero when memoization is disabled).
	CacheHits   int
	CacheMisses int
	// StructHits and StructMisses are this generation's structural-cache
	// outcomes: Analyze calls that found (respectively missed) a
	// structural sibling to warm-start from.
	StructHits   int
	StructMisses int
	// MigrantsIn counts elite individuals merged into the island's archive
	// by the ring migration that ran right after this generation (zero in
	// single-island runs and between migration barriers).
	MigrantsIn int
}

// Stats aggregates exploration statistics over every evaluated candidate
// (the raw material of Section 5.2).
type Stats struct {
	Evaluated int
	Feasible  int
	// RescuedByDropping counts candidates feasible with their drop set
	// but infeasible with dropping disabled (needs TrackDroppingGain).
	RescuedByDropping int
	// InfeasibleNoDrop counts candidates infeasible with dropping
	// disabled (needs TrackDroppingGain).
	InfeasibleNoDrop int
	// TechniqueCounts tallies hardening techniques over feasible
	// candidates' applied (non-None) decisions.
	TechniqueCounts map[hardening.Technique]int
	// CacheHits counts candidates served from the fitness cache (their
	// Decode→Apply→Compile→Analyze pipeline was skipped); CacheMisses
	// counts candidates actually evaluated. Hits + misses = Evaluated
	// when memoization is on; both stay zero when it is disabled.
	CacheHits   int
	CacheMisses int
	// StructHits counts Analyze calls whose compiled structure was found
	// in the cross-candidate structural cache; StructMisses counts calls
	// that seeded a fresh entry; WarmStartJobs counts the cold passes
	// (fault-free, all-critical reference) actually replaced by sibling
	// warm starts. All zero when structural caching is disabled.
	StructHits    int
	StructMisses  int
	WarmStartJobs int
	// ScenariosAnalyzed..ScenariosIncremental aggregate the core.Report
	// scenario counters over every candidate that actually ran the
	// analysis backend (fitness-cache replays are not re-counted):
	// backend invocations performed, plus invocations saved by
	// deduplication, skipped by dominance pruning, and warm-started
	// incrementally.
	ScenariosAnalyzed    int
	ScenariosDeduped     int
	ScenariosPruned      int
	ScenariosIncremental int
	// BatchHits is a legacy field and is never set.
	//
	// Deprecated: BatchHits is always zero.
	BatchHits int
	// Migrations counts the elite individuals exchanged over all ring-
	// migration rounds of a multi-island run (zero at Islands=1).
	Migrations int
	// IslandTakeovers counts islands a distributed coordinator re-ran
	// locally after unrecoverable worker loss (zero in healthy runs and
	// in non-distributed modes). Takeovers never change the archive —
	// the replaced islands replay the identical request sequence.
	IslandTakeovers int
	// IslandStats holds one per-island summary for multi-island runs, in
	// island order; nil at Islands=1.
	IslandStats []IslandStat
}

// merge folds another Stats (one island's tallies) into s. Migrations
// and IslandStats are run-level aggregates maintained by the coordinator
// and are not merged.
func (s *Stats) merge(o *Stats) {
	s.Evaluated += o.Evaluated
	s.Feasible += o.Feasible
	s.RescuedByDropping += o.RescuedByDropping
	s.InfeasibleNoDrop += o.InfeasibleNoDrop
	for t, c := range o.TechniqueCounts {
		s.TechniqueCounts[t] += c
	}
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.StructHits += o.StructHits
	s.StructMisses += o.StructMisses
	s.WarmStartJobs += o.WarmStartJobs
	s.ScenariosAnalyzed += o.ScenariosAnalyzed
	s.ScenariosDeduped += o.ScenariosDeduped
	s.ScenariosPruned += o.ScenariosPruned
	s.ScenariosIncremental += o.ScenariosIncremental
}

// RescueRatio is the Section 5.2 headline number: the fraction of
// explored solutions that are infeasible without task dropping but
// feasible with it.
func (s Stats) RescueRatio() float64 {
	if s.Evaluated == 0 {
		return 0
	}
	return float64(s.RescuedByDropping) / float64(s.Evaluated)
}

// ReExecutionShare is the fraction of applied hardening decisions that
// are re-executions, over feasible candidates.
func (s Stats) ReExecutionShare() float64 {
	total := 0
	for _, c := range s.TechniqueCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(s.TechniqueCounts[hardening.ReExecution]) / float64(total)
}

// Result is the GA outcome.
type Result struct {
	// Best is the feasible individual with minimum power (nil when none
	// found).
	Best *Individual
	// Front is the feasible non-dominated set, sorted by power.
	Front []*Individual
	// Stats aggregates all evaluations; History records per-generation
	// progress.
	Stats   Stats
	History []GenStat
}

// Optimize runs the GA: Options.Islands concurrent SPEA-II trajectories
// over one shared worker budget, with ring migration every
// MigrationInterval generations and a final cross-island merge. At
// Islands=1 (the default) the run is byte-identical to the historical
// single-trajectory engine for any given seed.
func Optimize(p *Problem, opts Options) (*Result, error) {
	// Static pre-flight over the DSE parameters: reject chromosome caps
	// the encoding cannot express before evolving anything. Warnings
	// (defaulted fields, contradictory measurement flags) are left to
	// the caller's validation tooling — the engine only refuses what it
	// cannot run.
	if r := validate.CheckDSEParams(p.Arch, validate.DSEParams{
		MaxK: p.MaxK, MaxReplicas: p.MaxReplicas,
		PopSize: opts.PopSize, ArchiveSize: opts.ArchiveSize, Generations: opts.Generations,
		MutationRate: opts.MutationRate, Workers: opts.Workers,
		Islands: opts.Islands, MigrationInterval: opts.MigrationInterval,
		TrackDroppingGain: opts.TrackDroppingGain, DisableDropping: opts.DisableDropping,
	}); r.HasErrors() {
		return nil, r.Err()
	}
	opts = opts.withDefaults()
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, err
		}
	}
	distributed := len(opts.IslandHosts) > 0 && opts.Islands > 1
	if distributed && (opts.CheckpointSink != nil || opts.Resume != nil) {
		return nil, fmt.Errorf("dse: checkpoint/resume is not supported with distributed islands")
	}
	if opts.Resume != nil {
		if err := checkResume(p, opts, opts.Resume); err != nil {
			return nil, err
		}
	}
	if opts.Progress != nil {
		// Serialize the callback: multi-island runs record generations
		// from concurrent island goroutines.
		var mu sync.Mutex
		fn := opts.Progress
		opts.Progress = func(gs GenStat) {
			mu.Lock()
			defer mu.Unlock()
			fn(gs)
		}
	}
	res := &Result{Stats: Stats{TechniqueCounts: map[hardening.Technique]int{}}}

	ev, opts := newRunEvaluator(p, opts)

	var archive []*Individual
	if opts.Islands == 1 {
		var err error
		archive, err = runSingle(p, opts, ev, res)
		if err != nil {
			return nil, err
		}
	} else if distributed {
		var err error
		archive, err = runIslandsDistributed(p, opts, res)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		archive, err = runIslands(p, opts, ev, res)
		if err != nil {
			return nil, err
		}
	}

	// Harvest.
	for _, ind := range archive {
		if !ind.Feasible {
			continue
		}
		if res.Best == nil || ind.Power < res.Best.Power {
			res.Best = ind
		}
	}
	res.Front = paretoFront(archive)
	return res, nil
}

// runSingle is the single-island trajectory. Without checkpointing it is
// one uninterrupted advance — the historical engine verbatim. With a
// CheckpointSink or Resume it runs in MigrationInterval-generation legs,
// checkpointing at each leg boundary below Generations; the legged loop
// performs the identical operation sequence (advance(1,10); advance(11,20)
// ≡ advance(1,20)), so the split never changes the trajectory.
func runSingle(p *Problem, opts Options, ev evaluator, res *Result) ([]*Individual, error) {
	isl := newIsland(0, p, opts, opts.Seed, ev)
	start := 1
	if ck := opts.Resume; ck != nil {
		restoreIsland(isl, &ck.Islands[0])
		res.Stats.Migrations = ck.Migrations
		start = ck.Gen + 1
	} else if err := isl.init(); err != nil {
		return nil, err
	}
	if opts.CheckpointSink == nil {
		if err := isl.advance(start, opts.Generations); err != nil {
			return nil, err
		}
	} else {
		for from := start; from <= opts.Generations; from += opts.MigrationInterval {
			to := from + opts.MigrationInterval - 1
			if to > opts.Generations {
				to = opts.Generations
			}
			if err := isl.advance(from, to); err != nil {
				return nil, err
			}
			if to < opts.Generations {
				if err := opts.CheckpointSink(captureCheckpoint(p, opts, []*island{isl}, to, 0)); err != nil {
					return nil, fmt.Errorf("dse: checkpoint sink: %w", err)
				}
			}
		}
	}
	res.Stats.merge(&isl.stats)
	res.History = isl.history
	return isl.archive, nil
}

// newRunEvaluator builds a run's evaluation machinery from its options:
// one worker budget for the whole run — candidate evaluations acquire
// from the pool, the scenario fan-out nested inside core.Analyze and
// the SPEA-II selection kernels borrow spare tokens from the same pool
// (see workpool), and every island draws from it too — plus the
// structural cache and the pool-wired selector (fitness caches are
// island-private; newIsland builds them). Shared
// by Optimize and the distributed-island worker (buildWorkerIsland),
// which performs exactly this wiring against its own worker budget.
func newRunEvaluator(p *Problem, opts Options) (evaluator, Options) {
	ev := evaluator{
		cfg:  p.Analysis,
		pool: opts.Pool,
	}
	if ev.pool == nil {
		ev.pool = workpool.New(opts.Workers)
	}
	ev.cfg.Pool = ev.pool
	if opts.PruneDominated {
		ev.cfg.PruneDominated = true
	}
	if opts.DisableCompiled {
		ev.cfg.Compiled = false
	}
	if opts.StructuralCacheSize >= 0 {
		if ev.cfg.Structural == nil {
			// Respect a caller-provided cache (Problem.Analysis.Structural):
			// the analysis service pre-wires a per-problem persistent cache
			// so runs warm-start each other. Absent that, build a private
			// one for this run.
			ev.cfg.Structural = core.NewStructuralCache(opts.StructuralCacheSize)
		}
	} else {
		ev.cfg.Structural = nil
	}
	if pw, ok := opts.Selector.(poolWirer); ok {
		opts.Selector = pw.withPool(ev.pool)
	}
	return ev, opts
}

// snapshot records one generation.
func snapshot(gen int, archive []*Individual, gc genCacheStats) GenStat {
	gs := GenStat{Gen: gen, BestPower: -1, ArchiveSize: len(archive),
		CacheHits: gc.hits, CacheMisses: gc.misses,
		StructHits: gc.structHits, StructMisses: gc.structMisses}
	for _, ind := range archive {
		if !ind.Feasible {
			continue
		}
		gs.Feasible++
		if gs.BestPower < 0 || ind.Power < gs.BestPower {
			gs.BestPower = ind.Power
		}
	}
	return gs
}

// paretoFront extracts the feasible non-dominated individuals, deduped by
// objectives and sorted by power.
func paretoFront(archive []*Individual) []*Individual {
	var feas []*Individual
	for _, ind := range archive {
		if ind.Feasible {
			feas = append(feas, ind)
		}
	}
	var front []*Individual
	for _, a := range feas {
		dominated := false
		for _, b := range feas {
			if b != a && b.Objectives.Dominates(a.Objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	sort.SliceStable(front, func(i, j int) bool {
		if front[i].Power != front[j].Power {
			return front[i].Power < front[j].Power
		}
		return front[i].Service < front[j].Service
	})
	// Dedup identical objective points.
	out := front[:0]
	for i, ind := range front {
		if i > 0 && ind.Objectives == front[i-1].Objectives {
			continue
		}
		out = append(out, ind)
	}
	return out
}

// evaluator bundles the per-run evaluation machinery: the analysis
// config wired to the shared worker pool.
type evaluator struct {
	cfg  core.Config
	pool *workpool.Pool
}

// genCacheStats is one batch's caching outcome: fitness-cache hits and
// misses, plus the structural-cache counters aggregated over the batch's
// actually-evaluated candidates.
type genCacheStats struct {
	hits, misses             int
	structHits, structMisses int
	warmJobs                 int
}

// evaluateAll scores a batch of genomes and folds statistics into the
// island's tally. It runs in three phases so the result — including the
// cache hit/miss trajectory — is deterministic for a given seed:
//
//  1. sequential cache lookup in batch order (duplicates within the
//     batch collapse onto one evaluation);
//  2. parallel evaluation of the misses under the shared worker pool;
//  3. sequential merge in batch order: hits are replayed as fresh
//     Individuals, misses fill the cache.
//
// The island's private cache is touched only by these sequential
// phases, so the hit/miss trajectory is deterministic. A hit never
// changes what a candidate evaluates to (evaluation is pure per
// genome), so trajectories never depend on the cache.
func (isl *island) evaluateAll(genomes []*Genome) ([]*Individual, genCacheStats, error) {
	p, opts, ev, cache, stats := isl.p, isl.opts, isl.ev, isl.cache, &isl.stats
	out := make([]*Individual, len(genomes))
	var gc genCacheStats

	// ---- Phase 1: lookups and intra-batch dedup (sequential) ----------
	toEval := make([]int, 0, len(genomes))
	var (
		keys     []Key128
		hits     []*Individual
		firstIdx map[Key128]int
		dupOf    map[int]int
	)
	if cache != nil {
		keys = make([]Key128, len(genomes))
		hits = make([]*Individual, len(genomes))
		firstIdx = make(map[Key128]int, len(genomes))
		dupOf = make(map[int]int)
		for i, g := range genomes {
			keys[i] = g.Key128()
			if ind, ok := cache.Get(keys[i]); ok {
				hits[i] = ind
				continue
			}
			if j, ok := firstIdx[keys[i]]; ok {
				dupOf[i] = j
				continue
			}
			firstIdx[keys[i]] = i
			toEval = append(toEval, i)
		}
	} else {
		for i := range genomes {
			toEval = append(toEval, i)
		}
	}

	// ---- Phase 2: evaluate the misses (parallel) ----------------------
	// Launch the misses sorted by genome shape so candidates compiling
	// to the same job set run back to back. With structural caching on,
	// the first sibling of each shape seeds the cache while its peers
	// are still queued behind the worker budget, and the peers then
	// warm-start instead of converging from scratch. Even without it the
	// ordering pays: adjacent evaluations of look-alike genomes hit warm
	// CPU caches and recycle same-sized allocations, recovering some of
	// the locality the dedup in phase 1 takes away from repeated
	// genomes. The sort is stable over batch order, so the schedule
	// stays deterministic; results are written by original index, so
	// nothing downstream moves.
	if len(toEval) > 1 {
		shapes := make(map[int]string, len(toEval))
		for _, i := range toEval {
			shapes[i] = genomes[i].ShapeKey()
		}
		sort.SliceStable(toEval, func(a, b int) bool {
			return shapes[toEval[a]] < shapes[toEval[b]]
		})
	}
	errs := make([]error, len(genomes))
	if len(toEval) > 0 {
		// The island goroutine is the batch coordinator: it blocks for
		// ONE pool slot (keeping sibling islands budget-bounded), then
		// drains the candidate list inline, with up to width-1 helpers
		// submitted to the persistent pool draining the same shared
		// cursor. Helpers hold their own slots and never block-acquire,
		// so the nesting protocol stays deadlock-free, and the common
		// Workers=1 case runs the batch as a plain sequential loop in
		// deterministic (ShapeKey-sorted) order instead of spawning one
		// goroutine per candidate to fight over a single slot.
		pprof.Do(isl.ctx, pprof.Labels("phase", "evaluate"), func(context.Context) {
			ev.pool.Acquire()
			defer ev.pool.Release()
			var cursor atomic.Int64
			// Cancellation: workers re-check the island context per
			// candidate claim, so a cancelled run stops fanning out within
			// one candidate's worth of work and releases its pool slots.
			claim := func() (int, bool) {
				if isl.ctx.Err() != nil {
					return 0, false
				}
				k := int(cursor.Add(1)) - 1
				if k >= len(toEval) {
					return 0, false
				}
				return toEval[k], true
			}
			drain := func() {
				i, ok := claim()
				if !ok {
					return
				}
				pprof.Do(isl.ctx, pprof.Labels("phase", "evaluate"), func(context.Context) {
					for ok {
						out[i], errs[i] = p.evaluate(genomes[i], opts.TrackDroppingGain, ev.cfg)
						i, ok = claim()
					}
				})
			}
			width := ev.pool.Cap()
			if width > len(toEval) {
				width = len(toEval)
			}
			ev.pool.FanOut(width, drain)
		})
	}
	// After a cancelled fan-out some out[i] slots are nil (never claimed);
	// surface ctx.Err() before the merge walks them.
	if err := isl.ctx.Err(); err != nil {
		return nil, gc, err
	}
	for _, i := range toEval {
		if errs[i] != nil {
			return nil, gc, fmt.Errorf("dse: evaluating candidate %d: %w", i, errs[i])
		}
		stats.ScenariosAnalyzed += out[i].scen.analyzed
		stats.ScenariosDeduped += out[i].scen.deduped
		stats.ScenariosPruned += out[i].scen.pruned
		stats.ScenariosIncremental += out[i].scen.incremental
		gc.structHits += out[i].scen.structHits
		gc.structMisses += out[i].scen.structMisses
		gc.warmJobs += out[i].scen.warmJobs
	}
	stats.StructHits += gc.structHits
	stats.StructMisses += gc.structMisses
	stats.WarmStartJobs += gc.warmJobs

	// ---- Phase 3: merge and fill the cache (sequential, batch order) --
	if cache != nil {
		for i := range genomes {
			switch {
			case hits[i] != nil:
				gc.hits++
				out[i] = hits[i].cloneFor(genomes[i])
			case out[i] != nil:
				gc.misses++
				// Store a pristine clone: the live Individual's Fitness
				// is mutated by the selector. The clone carries no genome
				// — hits re-attribute to the requesting genome anyway, and
				// a stored pointer would keep every evaluated genome alive
				// for the cache's lifetime, inflating GC mark work.
				cache.Put(keys[i], out[i].cloneFor(nil))
			default: // intra-batch duplicate of an evaluated genome
				gc.hits++
				out[i] = out[dupOf[i]].cloneFor(genomes[i])
			}
		}
		stats.CacheHits += gc.hits
		stats.CacheMisses += gc.misses
	}

	for _, ind := range out {
		stats.Evaluated++
		if ind.Feasible {
			stats.Feasible++
			for i := range ind.Genome.Genes {
				t := ind.Genome.Genes[i].Technique
				if t != hardening.None {
					stats.TechniqueCounts[t]++
				}
			}
		}
		if opts.TrackDroppingGain {
			if !ind.FeasibleNoDrop {
				stats.InfeasibleNoDrop++
				if ind.Feasible {
					stats.RescuedByDropping++
				}
			}
		}
	}
	return out, gc, nil
}

// Evaluate scores one (already repaired) genome with the problem's
// configured analysis. It is pure and safe for concurrent use.
func (p *Problem) Evaluate(g *Genome, trackNoDrop bool) (*Individual, error) {
	return p.evaluate(g, trackNoDrop, p.Analysis)
}

// evaluate is Evaluate with an explicit analysis config, letting the GA
// wire in the run's shared worker pool without mutating the Problem.
func (p *Problem) evaluate(g *Genome, trackNoDrop bool, cfg core.Config) (*Individual, error) {
	ph, err := p.Decode(g)
	if err != nil {
		return nil, err
	}
	ind := &Individual{Genome: g, Service: ph.Service}
	for name := range ph.Dropped {
		ind.Dropped = append(ind.Dropped, name)
	}
	sort.Strings(ind.Dropped)

	// Structural validity: every task on an allocated processor and
	// replicas on pairwise distinct processors. Repaired genomes always
	// satisfy this; with repair disabled (ablation) violations are
	// penalized instead of erroring.
	structuralOK := true
	seenReplica := map[model.TaskID]map[model.ProcID]bool{}
	for id, pid := range ph.Mapping {
		if !ph.Alloc[pid] {
			structuralOK = false
			break
		}
		orig := ph.Manifest.OriginalOf(id)
		if orig != id {
			g := ph.Manifest.Apps.GraphOf(id)
			if g != nil {
				if task := g.Task(id); task != nil && task.Kind == model.KindReplica {
					if seenReplica[orig] == nil {
						seenReplica[orig] = map[model.ProcID]bool{}
					}
					if seenReplica[orig][pid] {
						structuralOK = false
						break
					}
					seenReplica[orig][pid] = true
				}
			}
		}
	}
	if !structuralOK {
		ind.Power = infeasiblePenalty * 4
		ind.Objectives = Objectives{ind.Power, infeasiblePenalty}
		return ind, nil
	}

	sys, err := p.Compile(ph)
	if err != nil {
		return nil, err
	}
	rep, err := core.Analyze(sys, ph.Dropped, cfg)
	if err != nil {
		return nil, err
	}
	ind.GraphWCRT = rep.GraphWCRT
	ind.scen.add(rep)

	rel, err := reliability.Assess(p.Arch, ph.Manifest, ph.Mapping)
	if err != nil {
		return nil, err
	}

	ind.Feasible = rep.Feasible() && rel.OK()
	if trackNoDrop {
		repND, err := core.Analyze(sys, core.DropSet{}, cfg)
		if err != nil {
			return nil, err
		}
		ind.FeasibleNoDrop = repND.Feasible() && rel.OK()
		ind.scen.add(repND)
	}

	if ind.Feasible {
		pw, err := power.Expected(p.Arch, ph.Manifest, ph.Mapping, ph.Alloc)
		if err != nil {
			return nil, err
		}
		ind.Power = pw.Total
		ind.Objectives = Objectives{pw.Total, -ph.Service}
		return ind, nil
	}
	// Penalty with an overrun gradient.
	overrun := 0.0
	for gi, g := range sys.Apps.Graphs {
		w := rep.GraphWCRT[gi]
		d := g.EffectiveDeadline()
		if w.IsInfinite() {
			overrun += 10
		} else if w > d {
			overrun += float64(w-d) / float64(d)
		}
	}
	if !rel.OK() {
		overrun += float64(len(rel.Violations))
	}
	ind.Power = infeasiblePenalty * (1 + overrun)
	ind.Objectives = Objectives{ind.Power, infeasiblePenalty}
	return ind, nil
}
