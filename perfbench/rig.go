package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/dse"
	"mcmap/internal/model"
	"mcmap/internal/service"
)

// workload describes one benchmark workload. Every workload serves
// /analyze requests from an in-process mcmapd and runs genetic DSE on
// the same benchmark; they differ in the problem, in how the DSE runs
// and in whether the two contend.
type workload struct {
	name  string
	bench string
	// pop and gens size each in-process GA run (ga-*); islands > 1 runs
	// it as that many islands over a loopback TCP fleet (one
	// dse.ServeIslands listener in this process).
	pop, gens, islands int
	// analyzeOps caps the /analyze requests of a ga-* run, sent in
	// bursts of analyzeBurst before the GA runs.
	analyzeOps, analyzeBurst int
	// daemonDSE runs the DSE as back-to-back /dse jobs of jobPop x
	// jobGens beside the /analyze clients instead of in-process.
	daemonDSE       bool
	jobPop, jobGens int
}

var workloads = map[string]workload{
	// The ga-* bursts take about a third of the window.
	"ga-cruise": {name: "ga-cruise", bench: "cruise", pop: 100, gens: 100, islands: 1,
		analyzeOps: 28000, analyzeBurst: 4000},
	"ga-fleet-dtlarge": {name: "ga-fleet-dtlarge", bench: "dt-large", pop: 100, gens: 30, islands: 2,
		analyzeOps: 24000, analyzeBurst: 4000},
	// daemon-mix is not in BENCHMARK.json: with the /dse job's workers
	// and the clients oversubscribing the CPUs, its latencies measure
	// the scheduler as much as the daemon (see workloads.json). It runs
	// by name. The /dse jobs run at the daemon's default parameters.
	"daemon-mix": {name: "daemon-mix", bench: "dt-large", daemonDSE: true, jobPop: 40, jobGens: 60},
}

// migrationInterval is the generations between island migrations.
const migrationInterval = 10

// rig is what set-up builds: the validated problem, an in-process
// daemon behind a loopback HTTP server and, for fleet workloads, the
// island listener.
type rig struct {
	w      workload
	p      *dse.Problem
	dseDoc []byte // the /dse request body: architecture and unhardened apps
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client
	fleet  net.Listener
	served chan error
}

// newRig builds the rig and warms it up: the warm bodies go through
// /analyze, and a one-generation GA runs through the workload's DSE path.
func newRig(w workload, warm [][]byte) (*rig, error) {
	b, err := benchmarks.ByName(w.bench)
	if err != nil {
		return nil, err
	}
	rg := &rig{w: w}
	if rg.p, err = dse.NewProblem(b.Arch, b.Apps); err != nil {
		return nil, fmt.Errorf("problem %s: %w", w.bench, err)
	}
	if rg.dseDoc, err = json.Marshal(&model.Spec{Architecture: b.Arch, Apps: b.Apps}); err != nil {
		return nil, err
	}
	rg.srv = service.New(service.Config{}, nil)
	rg.hs = httptest.NewServer(rg.srv.Handler())
	conns := runtime.NumCPU()
	rg.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	if w.islands > 1 {
		if rg.fleet, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			rg.close()
			return nil, err
		}
		rg.served = make(chan error, 1)
		//lint:allow gospawn the island listener's accept loop; close() closes the listener and waits for it
		go func() { rg.served <- dse.ServeIslands(rg.fleet) }()
	}
	if err := rg.warmUp(warm); err != nil {
		rg.close()
		return nil, err
	}
	return rg, nil
}

func (rg *rig) warmUp(warm [][]byte) error {
	for _, body := range warm {
		status, resp, err := rg.do("POST", "/analyze", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up /analyze: status %d: %v %s", status, err, resp)
		}
	}
	if !rg.w.daemonDSE {
		_, err := dse.Optimize(rg.p, rg.gaOptions(1, 1))
		return err
	}
	id, err := rg.submitJob(1, 1)
	if err != nil {
		return err
	}
	for {
		st, err := rg.jobStatus(id)
		if err != nil {
			return err
		}
		switch st.State {
		case "done":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("warm-up /dse job %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gaOptions are the options of one in-process GA run of the workload.
func (rg *rig) gaOptions(seed int64, gens int) dse.Options {
	opts := dse.Options{PopSize: rg.w.pop, Generations: gens, Seed: seed}
	if rg.w.islands > 1 {
		opts.Islands = rg.w.islands
		opts.MigrationInterval = migrationInterval
		opts.IslandHosts = []string{rg.fleet.Addr().String()}
	}
	return opts
}

func (rg *rig) close() {
	if rg.hs != nil {
		rg.hs.Close()
	}
	if rg.srv != nil {
		rg.srv.Close()
	}
	if rg.client != nil {
		rg.client.CloseIdleConnections()
	}
	if rg.fleet != nil {
		rg.fleet.Close()
		<-rg.served
	}
}

// do sends one request and reads the whole answer.
func (rg *rig) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, rg.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := rg.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// jobState is the part of GET /jobs/{id} the benchmark reads.
type jobState struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// jobResult is the part of a finished job's result the benchmark checks.
type jobResult struct {
	Feasible  bool `json:"feasible"`
	Evaluated int  `json:"evaluated"`
	Front     []struct {
		Power   float64  `json:"power"`
		Service float64  `json:"service"`
		Dropped []string `json:"dropped"`
	} `json:"front"`
}

func (rg *rig) submitJob(seed int64, gens int) (string, error) {
	path := fmt.Sprintf("/dse?pop=%d&gens=%d&seed=%d", rg.w.jobPop, gens, seed)
	status, resp, err := rg.do("POST", path, rg.dseDoc)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("POST /dse: status %d: %s", status, resp)
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(resp, &ack); err != nil {
		return "", fmt.Errorf("POST /dse answer: %w", err)
	}
	return ack.ID, nil
}

func (rg *rig) jobStatus(id string) (*jobState, error) {
	status, resp, err := rg.do("GET", "/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s: status %d", id, status)
	}
	var st jobState
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, fmt.Errorf("GET /jobs/%s answer: %w", id, err)
	}
	return &st, nil
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	Workers      int `json:"workers"`
	WorkersInUse int `json:"workers_in_use"`
	Analyze      struct {
		Requests     int64 `json:"requests"`
		Runs         int64 `json:"runs"`
		Coalesced    int64 `json:"coalesced"`
		ResultHits   int64 `json:"result_hits"`
		StructHits   int64 `json:"struct_hits"`
		StructMisses int64 `json:"struct_misses"`
	} `json:"analyze"`
	Queue struct {
		Rejected int64 `json:"rejected"`
	} `json:"queue"`
}

func (rg *rig) stats() (*daemonStats, error) {
	status, resp, err := rg.do("GET", "/stats", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d", status)
	}
	var st daemonStats
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, fmt.Errorf("GET /stats answer: %w", err)
	}
	return &st, nil
}
