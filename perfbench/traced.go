package main

import (
	"fmt"
	"time"

	"mcmap/internal/dse"
)

// Replay sample sizes of the traced session.
const (
	replayCands = 1500
	replayReqs  = 300
)

// traced runs the traced session on top of the measured window: the
// workload's first GA (daemon-mix: its first /dse job, in process)
// again with a capturing selector, its captured candidates and /analyze
// bodies replayed through each layer with spans, and the per-layer
// table derived. It returns the metrics every workload reports and
// writes the full table, workload-specific rows included, with the
// spans under dir.
func (m *measurement) traced(dir string) (map[string]metric, error) {
	layers := map[string]metric{}
	p := m.rg.p

	// The untraced reference run: the measured window's first GA, or,
	// where that ran over the fleet or the daemon, the same run in
	// process.
	var opts dse.Options
	var plain *dse.Result
	var plainWall time.Duration
	if m.chain != nil {
		opts = m.w.jobOptions(m.chain.done()[0].seed)
	} else if len(m.ga) > 0 {
		opts = m.rg.gaOptions(m.ga[0].seed, m.w.gens)
		opts.IslandHosts = nil
	} else {
		return nil, fmt.Errorf("no GA run completed")
	}
	if m.chain == nil && m.w.islands <= 1 {
		plain, plainWall = m.ga[0].res, m.ga[0].wall
	} else {
		t0 := time.Now()
		res, err := dse.Optimize(p, opts)
		if err != nil {
			return nil, err
		}
		plain, plainWall = res, time.Since(t0)
	}
	if m.w.islands > 1 {
		layers["dse.fleet.overhead_ratio"] = metric{m.ga[0].wall.Seconds() / plainWall.Seconds(), "ratio"}
		legs := len(m.ga) * m.w.islands * ((m.w.gens + migrationInterval - 1) / migrationInterval)
		layers["dse.transport.bytes_per_leg"] = metric{ratio(float64(m.fleetBytes), float64(legs)), "bytes"}
		m.notes = append(m.notes, "dse.transport.bytes_per_leg counts every frame twice: coordinator and worker share this process")
	}
	if m.chain != nil {
		var waits []float64
		for _, j := range m.chain.done() {
			waits = append(waits, msSince(j.accepted, j.running))
		}
		layers["service.dse_queue_wait_ms"] = metric{median(waits), "ms"}
	}

	// The traced run: the same GA with the capturing selector.
	capture := newCaptureSelector()
	copts := opts
	copts.Selector = capture
	t0 := time.Now()
	traced, err := dse.Optimize(p, copts)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	if archiveDigest(traced) != archiveDigest(plain) {
		m.problems = append(m.problems, "the traced GA run diverged from the untraced one")
	}
	layers["trace.overhead_ratio"] = metric{tracedWall.Seconds()/plainWall.Seconds() - 1, "ratio"}

	rec := newRecorder()
	if err := replayCandidates(p, capture.fresh, replayCands, rec); err != nil {
		return nil, fmt.Errorf("candidate replay: %w", err)
	}
	failRatio := replayRepair(p, capture.archives, replayCands, deriveSeed(m.seed, streamReplay), rec, 1<<20)
	candSpans := len(rec.spans)
	if err := replayRequests(m.st.sentBodies(replayReqs), rec); err != nil {
		return nil, fmt.Errorf("request replay: %w", err)
	}
	cand := summarize(rec.spans[:candSpans])
	req := summarize(rec.spans[candSpans:])
	us := func(t map[string]*layerTimes, name string) float64 {
		lt := t[name]
		if lt == nil || lt.Count == 0 {
			return 0
		}
		return float64(lt.SelfNs) / float64(lt.Count) / 1e3
	}
	perEval := func(name string) metric { return metric{us(cand, name), "us"} }
	layers["dse.repair.us_per_eval"] = perEval("dse.repair")
	layers["dse.repair.fail_ratio"] = metric{failRatio, "ratio"}
	layers["dse.decode.us_per_eval"] = metric{us(cand, "dse.decode") - us(cand, "hardening.apply"), "us"}
	for _, name := range []string{"hardening.apply", "platform.compile", "sched.lower", "sched.normal_pass",
		"core.analyze", "reliability.assess", "power.expected"} {
		layers[name+".us_per_eval"] = perEval(name)
	}
	layers["core.scenario_passes.us_per_eval"] = metric{
		us(cand, "core.analyze") - us(cand, "sched.lower") - us(cand, "sched.normal_pass"), "us"}
	layers["dse.evaluate.self_us_per_eval"] = perEval("dse.evaluate")
	var selectNs int64
	for _, ns := range capture.selectNs {
		selectNs += ns
	}
	layers["dse.select.ms_per_gen"] = metric{ratio(float64(selectNs)/1e6, float64(len(capture.selectNs))), "ms"}
	m.notes = append(m.notes, "dse.select.ms_per_gen times SPEA2's serial kernel: the capturing selector is not pool-wired")
	for _, name := range []string{"model.read_spec", "validate.check", "validate.fingerprint", "platform.compile", "core.analyze"} {
		layers[name+".us_per_req"] = metric{us(req, name), "us"}
	}
	layers["request.self_us_per_req"] = metric{us(req, "request"), "us"}

	s := plain.Stats
	layers["dse.fitness_cache.hit_ratio"] = metric{ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)), "ratio"}
	layers["dse.batch.hit_ratio"] = metric{ratio(float64(s.BatchHits), float64(s.Evaluated)), "ratio"}
	layers["core.struct_cache.hit_ratio"] = metric{ratio(float64(s.StructHits), float64(s.StructHits+s.StructMisses)), "ratio"}
	analyzed := s.ScenariosAnalyzed + s.ScenariosDeduped + s.ScenariosPruned
	layers["core.scenarios_per_eval"] = metric{ratio(float64(analyzed), float64(s.Evaluated)), "count"}
	layers["core.dedup_ratio"] = metric{ratio(float64(s.ScenariosDeduped), float64(analyzed)), "ratio"}
	layers["core.incremental_ratio"] = metric{ratio(float64(s.ScenariosIncremental), float64(s.ScenariosAnalyzed)), "ratio"}
	layers["dse.feasible_ratio"] = metric{ratio(float64(s.Feasible), float64(s.Evaluated)), "ratio"}

	for c, l := range m.st.latency {
		layers["service.analyze_"+requestClass(c).String()+".p50_ms"] = metric{median(l), "ms"}
	}
	_, p99, _ := tailPercentile(m.st.latency[classFresh])
	layers["service.analyze_fresh.p99_ms"] = metric{p99, "ms"}
	d0, d1 := m.stats0, m.stats1
	reqs := float64(d1.Analyze.Requests - d0.Analyze.Requests)
	layers["service.result_cache.hit_ratio"] = metric{ratio(float64(d1.Analyze.ResultHits-d0.Analyze.ResultHits), reqs), "ratio"}
	layers["service.coalesced_ratio"] = metric{ratio(float64(d1.Analyze.Coalesced-d0.Analyze.Coalesced), reqs), "ratio"}
	sh, sm := d1.Analyze.StructHits-d0.Analyze.StructHits, d1.Analyze.StructMisses-d0.Analyze.StructMisses
	layers["service.struct_cache.hit_ratio"] = metric{ratio(float64(sh), float64(sh+sm)), "ratio"}
	layers["service.rejected_ratio"] = metric{ratio(float64(d1.Queue.Rejected-d0.Queue.Rejected), reqs), "ratio"}
	layers["workpool.busy_ratio"] = metric{median(m.st.busy), "ratio"}

	rt := m.gaRT
	if m.chain != nil {
		rt = m.windowRT
	}
	layers["runtime.gc.cpu_share"] = metric{rt.GCShare, "ratio"}
	layers["runtime.alloc_bytes_per_op"] = metric{rt.BytesPerOp, "bytes"}
	layers["runtime.allocs_per_op"] = metric{rt.ObjectsPerOp, "count"}
	m.notes = append(m.notes, "runtime.*_per_op: per GA candidate on ga-*, per /analyze request (the /dse jobs' allocations included) on daemon-mix")

	if err := writeTrace(dir, m, rec, layers); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, name := range perLayerNames {
		v, ok := layers[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not derived", name)
		}
		out[name] = v
	}
	return out, nil
}

// perLayerNames are the per-layer metrics every workload reports (the
// per_layer list of BENCHMARK.json). The fleet transport rows and the
// /dse queue wait exist on one workload each and appear only in the
// traced session's layer table.
var perLayerNames = []string{
	"dse.repair.us_per_eval", "dse.repair.fail_ratio", "dse.decode.us_per_eval",
	"hardening.apply.us_per_eval", "platform.compile.us_per_eval", "sched.lower.us_per_eval",
	"sched.normal_pass.us_per_eval", "core.analyze.us_per_eval", "core.scenario_passes.us_per_eval",
	"reliability.assess.us_per_eval", "power.expected.us_per_eval", "dse.select.ms_per_gen",
	"dse.fitness_cache.hit_ratio", "dse.batch.hit_ratio", "core.struct_cache.hit_ratio",
	"core.scenarios_per_eval", "core.dedup_ratio", "core.incremental_ratio", "dse.feasible_ratio",
	"model.read_spec.us_per_req", "validate.check.us_per_req", "validate.fingerprint.us_per_req",
	"platform.compile.us_per_req", "core.analyze.us_per_req",
	"service.analyze_fresh.p50_ms", "service.analyze_repeat.p50_ms", "service.analyze_respelled.p50_ms", "service.analyze_fresh.p99_ms",
	"service.result_cache.hit_ratio", "service.coalesced_ratio", "service.struct_cache.hit_ratio",
	"service.rejected_ratio", "workpool.busy_ratio",
	"runtime.gc.cpu_share", "runtime.alloc_bytes_per_op", "runtime.allocs_per_op",
	"trace.overhead_ratio",
}
