package main

import (
	"bytes"
	"math/rand"
	"sync"
	"time"

	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/power"
	"mcmap/internal/reliability"
	"mcmap/internal/sched"
	"mcmap/internal/validate"
)

// captureSelector wraps dse.SPEA2 to capture what each environmental
// selection sees: the candidates evaluated since the last selection and
// the archive it keeps. It is not pool-wired, so the selection it times
// is SPEA2's serial kernel.
type captureSelector struct {
	inner dse.SPEA2

	mu       sync.Mutex
	seen     map[*dse.Individual]bool
	fresh    []*dse.Individual
	archives [][]*dse.Individual
	selectNs []int64
}

func newCaptureSelector() *captureSelector {
	return &captureSelector{seen: map[*dse.Individual]bool{}}
}

// Select implements dse.Selector.
func (c *captureSelector) Select(union []*dse.Individual, size int) []*dse.Individual {
	t0 := time.Now()
	out := c.inner.Select(union, size)
	d := time.Since(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ind := range union {
		if !c.seen[ind] {
			c.seen[ind] = true
			c.fresh = append(c.fresh, ind)
		}
	}
	c.archives = append(c.archives, append([]*dse.Individual(nil), out...))
	c.selectNs = append(c.selectNs, int64(d))
	return out
}

// Parents implements dse.Selector.
func (c *captureSelector) Parents(archive []*dse.Individual, n int, rng *rand.Rand) []*dse.Individual {
	return c.inner.Parents(archive, n, rng)
}

// Name implements dse.Selector.
func (c *captureSelector) Name() string { return c.inner.Name() }

// replayBudget bounds the wall time of each replay.
const replayBudget = 6 * time.Second

// replayCandidates re-runs up to n captured candidates, evenly sampled
// across the run, through each layer's public call, one span per call
// under a dse.evaluate root. The analysis runs serially (one worker)
// without the structural cache, so each span is that layer's own cost.
// Problem.Decode includes hardening.Apply; hardening.apply times Apply
// again on the decoded plan so the decode metric can subtract it, and
// sched.lower and sched.normal_pass time the lowering and fault-free
// pass that core.Analyze performs inside.
func replayCandidates(p *dse.Problem, cands []*dse.Individual, n int, rec *recorder) error {
	cfg := p.Analysis
	cfg.Workers = 1
	h := &sched.Holistic{}
	stride := max(1, len(cands)/n)
	deadline := time.Now().Add(replayBudget)
	for i, trace := 0, 1; i < len(cands) && time.Now().Before(deadline); i, trace = i+stride, trace+1 {
		g := cands[i].Genome
		root := rec.begin("dse.evaluate", trace, 0)
		s := rec.begin("dse.decode", trace, root)
		ph, err := p.Decode(g)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("hardening.apply", trace, root)
		_, err = hardening.Apply(p.Apps, ph.Manifest.Plan)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("platform.compile", trace, root)
		sys, err := p.Compile(ph)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("core.analyze", trace, root)
		_, err = core.Analyze(sys, ph.Dropped, cfg)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("sched.lower", trace, root)
		cs := sched.CompileSystem(sys)
		rec.end(s)
		s = rec.begin("sched.normal_pass", trace, root)
		_, err = h.AnalyzeCompiled(cs, core.NormalExec(sys))
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("reliability.assess", trace, root)
		_, err = reliability.Assess(p.Arch, ph.Manifest, ph.Mapping)
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("power.expected", trace, root)
		_, err = power.Expected(p.Arch, ph.Manifest, ph.Mapping, ph.Alloc)
		rec.end(s)
		if err != nil {
			return err
		}
		rec.end(root)
	}
	return nil
}

// replayRepair builds n offspring from the captured archives with
// Problem.Crossover and Problem.Mutate, as the GA does, and times
// Problem.Repair on each. It returns the share of repairs that
// exhausted their reliability budget.
func replayRepair(p *dse.Problem, archives [][]*dse.Individual, n int, seed int64, rec *recorder, firstTrace int) float64 {
	rng := rand.New(rand.NewSource(seed))
	failed, done := 0, 0
	deadline := time.Now().Add(replayBudget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		arch := archives[rng.Intn(len(archives))]
		a, b := arch[rng.Intn(len(arch))], arch[rng.Intn(len(arch))]
		child := p.Crossover(a.Genome, b.Genome, rng)
		p.Mutate(child, 0.08, rng)
		s := rec.begin("dse.repair", firstTrace+i, 0)
		ok := p.Repair(child, rng)
		rec.end(s)
		done++
		if !ok {
			failed++
		}
	}
	return ratio(float64(failed), float64(done))
}

// replayRequests re-runs /analyze bodies through the layers the
// daemon's cold path calls, one span per call under a request root:
// decode, validation, fingerprinting, compilation and the analysis with
// a structural cache shared across the replayed requests, as the
// daemon's per-problem cache is. The analysis runs serially.
func replayRequests(bodies [][]byte, rec *recorder) error {
	cfg := core.NewConfig()
	cfg.Workers = 1
	cfg.Structural = core.NewStructuralCache(512)
	deadline := time.Now().Add(replayBudget)
	for i, trace := 0, 1; i < len(bodies) && time.Now().Before(deadline); i, trace = i+1, trace+1 {
		root := rec.begin("request", trace, 0)
		s := rec.begin("model.read_spec", trace, root)
		spec, err := model.ReadSpec(bytes.NewReader(bodies[i]))
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin("validate.check", trace, root)
		validate.CheckSpec(spec)
		rec.end(s)
		s = rec.begin("validate.fingerprint", trace, root)
		validate.Fingerprint(spec)
		rec.end(s)
		s = rec.begin("platform.compile", trace, root)
		sys, err := platform.Compile(spec.Architecture, spec.Apps, spec.Mapping, nil)
		rec.end(s)
		if err != nil {
			return err
		}
		dropped := core.DropSet{}
		for _, g := range spec.Apps.Graphs {
			if g.Droppable() {
				dropped[g.Name] = true
			}
		}
		s = rec.begin("core.analyze", trace, root)
		_, err = core.Analyze(sys, dropped, cfg)
		rec.end(s)
		if err != nil {
			return err
		}
		rec.end(root)
	}
	return nil
}
