package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// recentAnswered bounds the answered bodies repeats draw from; it stays
// well inside the daemon's 256-entry result cache, so a repeat is always
// a cache hit.
const recentAnswered = 64

// pollEvery spaces the clients' status polls (GET /stats, and GET
// /jobs/{id} while a /dse job runs).
const pollEvery = 20 * time.Millisecond

// stream drives the closed-loop /analyze clients: runtime.NumCPU()
// clients, each sending its next request when the previous one is
// answered, request classes following the seeded schedule. With fewer
// clients than CPUs, a CPU idles between requests, and the latency
// then mostly measures how fast the host wakes it: in three
// alternating pairs of runs on 2 vCPUs, one client's analyze_rps ranged
// over 43% and its analyze_p99_ms over 2.1x, two clients' over 8% and
// 16%.
type stream struct {
	rg    *rig
	gen   *specGen
	sched []requestClass
	// warm is the number of leading fresh mappings answered during set-up.
	warm int

	next, nextFresh, nextRespell atomic.Int64
	lastPoll                     atomic.Int64 // unix ns of the last status poll

	mu        sync.Mutex
	designs   []design                  // fresh designs, in the order they are sent
	answered  []int                     // recent answered fresh indices, oldest first
	first     map[int][sha256.Size]byte // fresh index -> hash of its first answer
	kept      map[int][]byte            // first answers of every spotEvery-th fresh index
	latency   [3][]float64              // ms per request class
	attempted int
	failed    int
	problems  []string
	busy      []float64 // workers_in_use/workers samples
	extra     int       // fresh mappings built inside the window
	// poll, when set, runs after each /stats sample (the /dse chain).
	poll func()
}

// spotEvery spaces the fresh answers kept whole for the spot check.
const spotEvery = 50

func newStream(rg *rig, seed int64, gen *specGen, designs []design, warm int) *stream {
	st := &stream{rg: rg, gen: gen, sched: classSchedule(seed, 1<<18), designs: designs, warm: warm,
		first: map[int][sha256.Size]byte{}, kept: map[int][]byte{}}
	st.nextFresh.Store(int64(warm))
	return st
}

// seedAnswers records the answers to the set-up's warm-up bodies.
func (st *stream) seedAnswers() error {
	for i := 0; i < st.warm; i++ {
		status, resp, err := st.rg.do("POST", "/analyze", st.gen.body(st.designs[i]))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm body %d: status %d: %v", i, status, err)
		}
		st.record(i, resp)
	}
	return nil
}

// run drives the clients until stop returns true.
func (st *stream) run(stop func() bool) {
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		//lint:allow gospawn one closed-loop client per CPU, joined before run returns
		go func() {
			defer wg.Done()
			for !stop() {
				if !st.maybePoll() {
					st.request()
				}
			}
		}()
	}
	wg.Wait()
}

// maybePoll samples /stats when pollEvery has passed since the last
// poll, and reports whether it did.
func (st *stream) maybePoll() bool {
	now := time.Now().UnixNano()
	last := st.lastPoll.Load()
	if now-last < int64(pollEvery) || !st.lastPoll.CompareAndSwap(last, now) {
		return false
	}
	ds, err := st.rg.stats()
	st.mu.Lock()
	st.attempted++
	if err != nil {
		st.failed++
		st.problems = append(st.problems, err.Error())
	} else {
		st.busy = append(st.busy, ratio(float64(ds.WorkersInUse), float64(ds.Workers)))
	}
	poll := st.poll
	st.mu.Unlock()
	if poll != nil {
		poll()
	}
	return true
}

// request sends the next /analyze request of the schedule.
func (st *stream) request() {
	i := st.next.Add(1) - 1
	class := st.sched[int(i)%len(st.sched)]
	var idx int
	var d design
	if class == classFresh {
		var err error
		if idx, d, err = st.freshDesign(); err != nil {
			st.fail(err.Error())
			return
		}
	} else {
		st.mu.Lock()
		idx = st.answered[uint64(deriveSeed(i, 0))%uint64(len(st.answered))]
		d = st.designs[idx]
		st.mu.Unlock()
	}
	body := st.gen.body(d)
	if class == classRespelled {
		body = respell(body, int(st.nextRespell.Add(1)))
	}
	t0 := time.Now()
	status, resp, err := st.rg.do("POST", "/analyze", body)
	ms := float64(time.Since(t0)) / 1e6
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if err != nil || status != http.StatusOK {
		st.failed++
		st.problems = append(st.problems, fmt.Sprintf("%s /analyze of body %d: status %d: %v", class, idx, status, err))
		return
	}
	st.latency[class] = append(st.latency[class], ms)
	if class == classFresh {
		st.record(idx, resp)
		return
	}
	if sha256.Sum256(resp) != st.first[idx] {
		st.problems = append(st.problems, fmt.Sprintf("%s answer for body %d differs from its first answer", class, idx))
	}
}

// record stores the first answer to fresh body idx; st.mu is held.
func (st *stream) record(idx int, resp []byte) {
	st.first[idx] = sha256.Sum256(resp)
	if idx%spotEvery == 0 {
		st.kept[idx] = resp
	}
	st.answered = append(st.answered, idx)
	if len(st.answered) > recentAnswered {
		st.answered = st.answered[1:]
	}
}

// freshDesign hands out the next pre-built fresh design, building more
// (inside the window) only when the pre-built ones run out.
func (st *stream) freshDesign() (int, design, error) {
	idx := int(st.nextFresh.Add(1) - 1)
	st.mu.Lock()
	defer st.mu.Unlock()
	for idx >= len(st.designs) {
		d, err := st.gen.next()
		if err != nil {
			return 0, nil, err
		}
		st.designs = append(st.designs, d)
		st.extra++
	}
	return idx, st.designs[idx], nil
}

func (st *stream) fail(msg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.failed++
	st.problems = append(st.problems, msg)
}

// count returns the number of answered /analyze requests.
func (st *stream) count() int {
	n := 0
	for _, l := range st.latency {
		n += len(l)
	}
	return n
}

// sentBodies returns up to n evenly spaced fresh bodies that were answered.
func (st *stream) sentBodies(n int) [][]byte {
	var out [][]byte
	stride := max(1, len(st.first)/n)
	for i := 0; i < len(st.designs) && len(out) < n; i += stride {
		if _, ok := st.first[i]; ok {
			out = append(out, st.gen.body(st.designs[i]))
		}
	}
	return out
}

// answerDoc is the part of an /analyze answer the spot check compares.
type answerDoc struct {
	Feasible bool `json:"feasible"`
	Graphs   []struct {
		Name string     `json:"name"`
		WCRT model.Time `json:"wcrt"`
	} `json:"graphs"`
}

// spotCheck re-analyzes up to n of the kept fresh answers directly
// (platform.Compile + core.Analyze, every droppable graph dropped as
// /analyze does by default) and compares verdict and per-graph WCRT.
func (st *stream) spotCheck(n int) []string {
	var idxs []int
	for i := range st.designs {
		if st.kept[i] != nil {
			idxs = append(idxs, i)
		}
	}
	stride := max(1, len(idxs)/n)
	var problems []string
	for k := 0; k < len(idxs); k += stride {
		i := idxs[k]
		if err := checkAnswer(st.gen.spec(st.designs[i]), st.kept[i]); err != nil {
			problems = append(problems, fmt.Sprintf("body %d: %v", i, err))
		}
	}
	return problems
}

func checkAnswer(spec *model.Spec, answer []byte) error {
	var ans answerDoc
	if err := json.Unmarshal(answer, &ans); err != nil {
		return fmt.Errorf("answer: %w", err)
	}
	sys, err := platform.Compile(spec.Architecture, spec.Apps, spec.Mapping, nil)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	dropped := core.DropSet{}
	for _, g := range spec.Apps.Graphs {
		if g.Droppable() {
			dropped[g.Name] = true
		}
	}
	rep, err := core.Analyze(sys, dropped, core.NewConfig())
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if ans.Feasible != rep.Feasible() || len(ans.Graphs) != len(spec.Apps.Graphs) {
		return fmt.Errorf("verdict %v over %d graphs, direct analysis %v", ans.Feasible, len(ans.Graphs), rep.Feasible())
	}
	for _, g := range ans.Graphs {
		if want := rep.WCRTOf(g.Name); g.WCRT != want {
			return fmt.Errorf("graph %s: WCRT %dus, direct analysis %dus", g.Name, int64(g.WCRT), int64(want))
		}
	}
	return nil
}
