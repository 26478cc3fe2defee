package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/sched"
)

// gaRun is one completed in-process GA run.
type gaRun struct {
	seed int64
	wall time.Duration
	res  *dse.Result
}

// archiveDigest hashes everything the byte-identity contract between
// island layouts covers: per-generation progress without the cache
// counters (which differ between layouts), the run totals and every
// front member's genome and objectives.
func archiveDigest(res *dse.Result) string {
	var b strings.Builder
	for _, h := range res.History {
		fmt.Fprintf(&b, "g%d.%d:%x:%d:%d:m%d;", h.Gen, h.Island, h.BestPower, h.Feasible, h.ArchiveSize, h.MigrantsIn)
	}
	fmt.Fprintf(&b, "|ev%d:fe%d:mig%d", res.Stats.Evaluated, res.Stats.Feasible, res.Stats.Migrations)
	for _, ind := range res.Front {
		fmt.Fprintf(&b, "|f:%x:%x:%s", ind.Objectives[0], ind.Objectives[1], ind.Genome)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// checkGARun verifies one GA run: the evaluation count, no island
// takeovers, and every front member re-evaluated under an independent
// analysis configuration (pointer engine, no dedup, incremental or
// structural caching, one worker) with identical objectives, feasibility
// and per-graph WCRT.
func checkGARun(p *dse.Problem, opts dse.Options, res *dse.Result) []string {
	var problems []string
	islands := max(1, opts.Islands)
	if want := opts.PopSize * (opts.Generations + 1) * islands; res.Stats.Evaluated != want {
		problems = append(problems, fmt.Sprintf("seed %d: evaluated %d candidates, want %d", opts.Seed, res.Stats.Evaluated, want))
	}
	if res.Stats.IslandTakeovers != 0 {
		problems = append(problems, fmt.Sprintf("seed %d: %d island takeovers", opts.Seed, res.Stats.IslandTakeovers))
	}
	if len(res.Front) == 0 {
		problems = append(problems, fmt.Sprintf("seed %d: empty Pareto front", opts.Seed))
	}
	ref := *p
	ref.Analysis = core.Config{Analyzer: &sched.Holistic{}, Workers: 1}
	for i, ind := range res.Front {
		got, err := ref.Evaluate(ind.Genome, false)
		if err != nil {
			problems = append(problems, fmt.Sprintf("seed %d front %d: re-evaluation: %v", opts.Seed, i, err))
			continue
		}
		if got.Objectives != ind.Objectives || got.Feasible != ind.Feasible || !slices.Equal(got.GraphWCRT, ind.GraphWCRT) {
			problems = append(problems, fmt.Sprintf("seed %d front %d: re-evaluated to %v feasible=%v, GA reported %v feasible=%v",
				opts.Seed, i, got.Objectives, got.Feasible, ind.Objectives, ind.Feasible))
		}
	}
	return problems
}

// dseJob is one /dse job of the daemon-mix chain.
type dseJob struct {
	id                       string
	seed                     int64
	accepted, running, ended time.Time
	result                   *jobResult
}

// jobChain keeps one /dse job in flight: the client whose status poll
// sees the job done submits the next one.
type jobChain struct {
	rg   *rig
	seed int64

	mu       sync.Mutex
	jobs     []*dseJob
	cur      *dseJob
	stopped  bool
	problems []string
	polls    int
	failed   int
}

func (jc *jobChain) submit() error {
	seed := deriveSeed(jc.seed, streamJobs+uint64(len(jc.jobs)))
	id, err := jc.rg.submitJob(seed, jc.rg.w.jobGens)
	if err != nil {
		return err
	}
	jc.cur = &dseJob{id: id, seed: seed, accepted: time.Now()}
	jc.jobs = append(jc.jobs, jc.cur)
	return nil
}

// poll checks the job in flight and resubmits when it is done. Polls
// are serialized: the chain lock is held across the status request.
func (jc *jobChain) poll() {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	if jc.cur == nil {
		return
	}
	jc.polls++
	st, err := jc.rg.jobStatus(jc.cur.id)
	now := time.Now()
	if err != nil {
		jc.failed++
		jc.problems = append(jc.problems, err.Error())
		return
	}
	switch st.State {
	case "queued":
	case "running":
		if jc.cur.running.IsZero() {
			jc.cur.running = now
		}
	case "done":
		jc.cur.ended = now
		if jc.cur.running.IsZero() {
			jc.cur.running = now
		}
		var res jobResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			jc.problems = append(jc.problems, fmt.Sprintf("job %s result: %v", jc.cur.id, err))
		}
		jc.cur.result = &res
		jc.cur = nil
		if jc.stopped {
			return
		}
		jc.polls++
		if err := jc.submit(); err != nil {
			jc.failed++
			jc.problems = append(jc.problems, err.Error())
		}
	default:
		jc.failed++
		jc.problems = append(jc.problems, fmt.Sprintf("job %s ended %s: %s", jc.cur.id, st.State, st.Error))
		jc.cur = nil
	}
}

// done returns the jobs that completed.
func (jc *jobChain) done() []*dseJob {
	var out []*dseJob
	for _, j := range jc.jobs {
		if j.result != nil {
			out = append(out, j)
		}
	}
	return out
}

// checkJobs re-runs every completed job in process with the same
// parameters and compares evaluation count and front with the daemon's.
func checkJobs(rg *rig, jobs []*dseJob) []string {
	var problems []string
	for _, j := range jobs {
		res, err := dse.Optimize(rg.p, rg.w.jobOptions(j.seed))
		if err != nil {
			problems = append(problems, fmt.Sprintf("job %s: in-process re-run: %v", j.id, err))
			continue
		}
		if want := rg.w.jobPop * (rg.w.jobGens + 1); j.result.Evaluated != want {
			problems = append(problems, fmt.Sprintf("job %s: evaluated %d, want %d", j.id, j.result.Evaluated, want))
		}
		if got, want := jobFront(j.result), resultFront(res); got != want {
			problems = append(problems, fmt.Sprintf("job %s: front %s, in-process re-run %s", j.id, got, want))
		}
	}
	return problems
}

func jobFront(r *jobResult) string {
	var parts []string
	for _, f := range r.Front {
		parts = append(parts, fmt.Sprintf("%x/%x/%s", f.Power, f.Service, strings.Join(f.Dropped, ",")))
	}
	return strings.Join(parts, ";")
}

func resultFront(res *dse.Result) string {
	var parts []string
	for _, ind := range res.Front {
		d := append([]string(nil), ind.Dropped...)
		sort.Strings(d)
		parts = append(parts, fmt.Sprintf("%x/%x/%s", ind.Power, ind.Service, strings.Join(d, ",")))
	}
	return strings.Join(parts, ";")
}

// jobOptions are the options of the in-process run a /dse job of this
// workload must reproduce.
func (w workload) jobOptions(seed int64) dse.Options {
	return dse.Options{PopSize: w.jobPop, Generations: w.jobGens, Seed: seed}
}

// jobFrontDigest hashes a job's front for the reference record.
func jobFrontDigest(front string) string {
	sum := sha256.Sum256([]byte(front))
	return hex.EncodeToString(sum[:8])
}

// msSince is the span from a to b in milliseconds.
func msSince(a, b time.Time) float64 {
	if a.IsZero() || b.IsZero() {
		return math.NaN()
	}
	return float64(b.Sub(a)) / 1e6
}
