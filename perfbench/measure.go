package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/dse"
)

// measurement is everything one run of a workload observed.
type measurement struct {
	w    workload
	seed int64
	rg   *rig

	setup       []float64 // seconds per set-up repetition
	st          *stream
	analyzeWall time.Duration // wall time the /analyze samples span
	ga          []gaRun       // ga-*: the in-process GA runs
	gaRT        runtimeDelta  // runtime cost of the GA runs
	chain       *jobChain     // daemon-mix: the /dse jobs
	windowRT    runtimeDelta  // daemon-mix: runtime cost of the window
	stats0      *daemonStats  // /stats before and after the window
	stats1      *daemonStats
	rss         float64
	fleetBytes  int64 // transport bytes over the fleet GA runs

	attempted, failed int
	problems          []string
	notes             []string
}

// measure builds the inputs, sets up, runs the window and checks the
// outputs. An error means the benchmark could not run at all; failed
// checks land in m.problems.
func measure(w workload, seed int64, window time.Duration) (*measurement, error) {
	m := &measurement{w: w, seed: seed}
	b, err := benchmarks.ByName(w.bench)
	if err != nil {
		return nil, err
	}
	// The fresh designs the window is expected to send; past them the
	// clients build more inside the window.
	nFresh := warmBodies + w.analyzeOps*classShares[classFresh]/20
	if w.daemonDSE {
		nFresh = warmBodies + int(window.Seconds()*freshPerSecond)
	}
	gen, err := newSpecGen(b, deriveSeed(seed, streamSpecs))
	if err != nil {
		return nil, err
	}
	designs := make([]design, 0, nFresh)
	for len(designs) < nFresh {
		d, err := gen.next()
		if err != nil {
			return nil, err
		}
		designs = append(designs, d)
	}
	warm := make([][]byte, warmBodies)
	for i := range warm {
		warm[i] = gen.body(designs[i])
	}

	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		rg, err := newRig(w, warm)
		if err != nil {
			if m.rg != nil {
				m.rg.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if m.rg != nil {
			m.rg.close()
		}
		m.rg = rg
	}
	defer m.rg.close()

	m.st = newStream(m.rg, deriveSeed(seed, streamSchedule), gen, designs, warmBodies)
	if err := m.st.seedAnswers(); err != nil {
		return nil, err
	}
	if m.stats0, err = m.rg.stats(); err != nil {
		return nil, err
	}
	if w.daemonDSE {
		err = m.runDaemonMix(window)
	} else {
		err = m.runGA(window)
	}
	if err != nil {
		return nil, err
	}
	if m.stats1, err = m.rg.stats(); err != nil {
		return nil, err
	}
	m.rss = peakRSSMB()
	if m.st.extra > 0 {
		m.notes = append(m.notes, fmt.Sprintf("%d fresh designs were built inside the window", m.st.extra))
	}
	m.check()
	return m, nil
}

// freshPerSecond sizes daemon-mix's pre-built fresh designs, well above
// the fresh-request rate of a 2-CPU machine.
const freshPerSecond = 1000

// runGA is the ga-* window: back-to-back GA runs until the window has
// passed, each preceded by a burst of /analyze requests against the
// otherwise idle daemon until analyzeOps requests have been sent.
// Spreading the requests over the window keeps both metric families
// exposed to the same stretch of machine time, and a collection before
// each phase keeps one phase's garbage out of the other's timings.
func (m *measurement) runGA(window time.Duration) error {
	start := time.Now()
	burst := func() {
		runtime.GC()
		target := min(m.st.next.Load()+int64(m.w.analyzeBurst), int64(m.w.analyzeOps))
		t0 := time.Now()
		m.st.run(func() bool { return m.st.next.Load() >= target })
		m.analyzeWall += time.Since(t0)
	}
	var acc runtimeSample
	in0, out0 := dse.TransportCounters()
	evaluated := 0
	for k := 0; k == 0 || time.Since(start) < window; k++ {
		if m.st.next.Load() < int64(m.w.analyzeOps) {
			burst()
		}
		opts := m.rg.gaOptions(deriveSeed(m.seed, streamGA+uint64(k)), m.w.gens)
		runtime.GC()
		rt0 := readRuntime()
		t0 := time.Now()
		res, err := dse.Optimize(m.rg.p, opts)
		wall := time.Since(t0)
		acc = acc.plus(rt0, readRuntime())
		m.attempted++
		if err != nil {
			m.failed++
			m.problems = append(m.problems, fmt.Sprintf("GA run %d: %v", k, err))
			continue
		}
		m.failed += res.Stats.IslandTakeovers
		evaluated += res.Stats.Evaluated
		m.ga = append(m.ga, gaRun{seed: opts.Seed, wall: wall, res: res})
	}
	in1, out1 := dse.TransportCounters()
	m.fleetBytes = in1 - in0 + out1 - out0
	m.gaRT = runtimeSample{}.to(acc, evaluated)
	return nil
}

// runDaemonMix is the daemon-mix window: the /analyze clients run while
// one /dse job is always in flight.
func (m *measurement) runDaemonMix(window time.Duration) error {
	m.chain = &jobChain{rg: m.rg, seed: m.seed}
	if err := m.chain.submit(); err != nil {
		return err
	}
	m.st.poll = m.chain.poll
	rt0 := readRuntime()
	start := time.Now()
	m.st.run(func() bool { return time.Since(start) >= window })
	m.analyzeWall = time.Since(start)
	m.windowRT = rt0.to(readRuntime(), m.st.attempted)

	// Settle the job chain: the job in flight is cancelled unless no
	// job has completed yet, in which case it is waited for.
	m.chain.mu.Lock()
	m.chain.stopped = true
	m.chain.mu.Unlock()
	if len(m.chain.done()) == 0 {
		m.notes = append(m.notes, "no /dse job completed inside the window; waited for the first")
		for deadline := time.Now().Add(2 * time.Minute); len(m.chain.done()) == 0; time.Sleep(pollEvery) {
			if time.Now().After(deadline) {
				return fmt.Errorf("the first /dse job did not complete")
			}
			m.chain.poll()
		}
	}
	if cur := m.chain.cur; cur != nil {
		if status, _, err := m.rg.do("POST", "/jobs/"+cur.id+"/cancel", nil); err != nil || status != http.StatusOK {
			return fmt.Errorf("cancelling job %s: status %d: %v", cur.id, status, err)
		}
		for {
			st, err := m.rg.jobStatus(cur.id)
			if err != nil {
				return err
			}
			if st.State != "queued" && st.State != "running" {
				break
			}
			time.Sleep(pollEvery)
		}
	}
	m.attempted += m.chain.polls
	m.failed += m.chain.failed
	m.problems = append(m.problems, m.chain.problems...)
	return nil
}

// check runs the output checks that need no timing.
func (m *measurement) check() {
	m.attempted += m.st.attempted
	m.failed += m.st.failed
	m.problems = append(m.problems, m.st.problems...)
	m.problems = append(m.problems, m.st.spotCheck(20)...)
	var ref reference
	if err := json.Unmarshal(workloadsDoc, &ref); err != nil {
		m.problems = append(m.problems, fmt.Sprintf("workloads.json: %v", err))
	}
	want := ref.Workloads[m.w.name].Digest
	refRun := m.seed == ref.ReferenceSeed && want != ""
	for k, r := range m.ga {
		m.problems = append(m.problems, checkGARun(m.rg.p, m.rg.gaOptions(r.seed, m.w.gens), r.res)...)
		if k == 0 && refRun {
			if got := archiveDigest(r.res); got != want {
				m.problems = append(m.problems, fmt.Sprintf("GA run 0 digest %s, reference %s", got, want))
			}
		}
	}
	if m.chain != nil {
		jobs := m.chain.done()
		m.problems = append(m.problems, checkJobs(m.rg, jobs)...)
		if refRun && len(jobs) > 0 {
			if got := jobFrontDigest(jobFront(jobs[0].result)); got != want {
				m.problems = append(m.problems, fmt.Sprintf("job 0 front digest %s, reference %s", got, want))
			}
		}
	}
	if refRun {
		m.notes = append(m.notes, "reference seed: digest compared with workloads.json")
	}
}

// referenceDigest computes the digest workloads.json records for a
// workload: ga-cruise's first GA run, the in-process islands=2 run that
// ga-fleet-dtlarge's fleet must reproduce, or daemon-mix's first job.
func referenceDigest(w workload, seed int64) (string, error) {
	b, err := benchmarks.ByName(w.bench)
	if err != nil {
		return "", err
	}
	p, err := dse.NewProblem(b.Arch, b.Apps)
	if err != nil {
		return "", err
	}
	if w.daemonDSE {
		res, err := dse.Optimize(p, w.jobOptions(deriveSeed(seed, streamJobs)))
		if err != nil {
			return "", err
		}
		return jobFrontDigest(resultFront(res)), nil
	}
	opts := dse.Options{PopSize: w.pop, Generations: w.gens, Seed: deriveSeed(seed, streamGA),
		Islands: w.islands, MigrationInterval: migrationInterval}
	res, err := dse.Optimize(p, opts)
	if err != nil {
		return "", err
	}
	return archiveDigest(res), nil
}

// endToEnd derives the end-to-end metrics.
func (m *measurement) endToEnd() map[string]metric {
	// ga_evals_per_s pools every run (evaluations over summed run time),
	// so seed-to-seed differences between trajectories average out.
	var walls []float64
	evaluated, running := 0, 0.0
	if m.chain != nil {
		for _, j := range m.chain.done() {
			walls = append(walls, j.ended.Sub(j.accepted).Seconds())
			evaluated += j.result.Evaluated
			running += j.ended.Sub(j.running).Seconds()
		}
	}
	for _, r := range m.ga {
		walls = append(walls, r.wall.Seconds())
		evaluated += r.res.Stats.Evaluated
		running += r.wall.Seconds()
	}
	// The latency percentiles are over fresh requests, the ones the
	// daemon analyzes. The median of the whole mix falls between the
	// cached and the computed answers' latency bands, where it moved by
	// a third from one burst of a run to the next; inside the fresh band
	// it moves with the analysis path. The cached classes' medians are
	// per-layer metrics.
	//
	// The tail is printed but not gated (it is the per-layer
	// service.analyze_fresh.p99_ms): on 2 shared vCPUs it follows how
	// often the host preempts a vCPU. Over five runs of the same code
	// on ga-fleet-dtlarge, p99 ranged from 5.4 to 14.6 ms (spread 0.67)
	// while the median held within 10% (spread 0.05); the median over
	// bursts of each burst's p99 spread as much, and so did p95 (0.24).
	n := m.st.count()
	fresh := m.st.latency[classFresh]
	pct, p99, ok := tailPercentile(fresh)
	if !ok {
		m.problems = append(m.problems, fmt.Sprintf("only %d fresh /analyze samples", len(fresh)))
	} else {
		m.notes = append(m.notes, fmt.Sprintf("analyze_p99_ms %.4f ms (ungated): p%d of %d fresh samples", p99, pct, len(fresh)))
	}
	m.notes = append(m.notes, fmt.Sprintf("%d /analyze samples (%d fresh) over %.2fs; %d DSE runs or jobs; failed_ratio %.4f (%d of %d operations)",
		n, len(fresh), m.analyzeWall.Seconds(), len(walls), ratio(float64(m.failed), float64(m.attempted)), m.failed, m.attempted))
	return map[string]metric{
		"setup_s":        {median(m.setup), "s"},
		"ga_evals_per_s": {float64(evaluated) / running, "1/s"},
		"dse_job_s":      {median(walls), "s"},
		"analyze_rps":    {float64(n) / m.analyzeWall.Seconds(), "1/s"},
		"analyze_p50_ms": {median(fresh), "ms"},
		"peak_rss_mb":    {m.rss, "MB"},
	}
}
