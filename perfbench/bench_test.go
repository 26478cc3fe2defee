package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/model"
	"mcmap/internal/validate"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: got %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("no samples: want NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		pct     int
		value   float64
		ok      bool
		comment string
	}{
		{1000, 99, 990, true, "rank 990 leaves exactly 10 beyond"},
		{999, 98, 980, true, "p99 would leave 9 beyond"},
		{100, 90, 90, true, "10 beyond p90"},
		{20, 50, 10, true, "only the median has 10 beyond"},
		{19, 0, 0, false, "the median leaves 9 beyond"},
	} {
		pct, value, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || (ok && value != tc.value) {
			t.Errorf("n=%d (%s): got p%d=%v ok=%v, want p%d=%v ok=%v", tc.n, tc.comment, pct, value, ok, tc.pct, tc.value, tc.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped to the root
		{ID: 6, Parent: 4, Name: "c", Start: 62, End: 65},  // grandchild: counts against b only
	}
	got := summarize(spans)
	want := map[string]layerTimes{
		"root": {Count: 1, SelfNs: 100 - 40 - 10 - 10},
		"a":    {Count: 2, SelfNs: 50},
		"b":    {Count: 2, SelfNs: 40 - 3},
		"c":    {Count: 1, SelfNs: 3},
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestRecorderSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("root", 7, 0)
	child := rec.begin("child", 7, root)
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].Trace != 7 {
		t.Fatalf("spans %+v", rec.spans)
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var buf bytes.Buffer
	if err := rec.write(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(5, 3) != deriveSeed(5, 3) {
		t.Fatal("not deterministic")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for stream := uint64(0); stream < 4; stream++ {
			s := deriveSeed(seed, stream)
			if s < 0 || seen[s] {
				t.Fatalf("seed %d stream %d: %d negative or repeated", seed, stream, s)
			}
			seen[s] = true
		}
	}
}

func TestClassSchedule(t *testing.T) {
	a, b := classSchedule(3, 100), classSchedule(3, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, classSchedule(4, 100)) {
		t.Error("different seeds, same schedule")
	}
	for block := 0; block < 5; block++ {
		var n [3]int
		for _, c := range a[block*20 : block*20+20] {
			n[c]++
		}
		if n != classShares {
			t.Errorf("block %d holds %v, want %v", block, n, classShares)
		}
	}
}

// TestSpecGenDeterministic pins the mapping generator: the same seed
// yields the same bodies, every body is validator-clean with replicas on
// distinct processors, and no mapping repeats.
func TestSpecGenDeterministic(t *testing.T) {
	for _, bench := range []string{"cruise", "dt-large"} {
		b, err := benchmarks.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		g1, err := newSpecGen(b, 11)
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := newSpecGen(b, 11)
		g3, _ := newSpecGen(b, 12)
		differs := false
		seen := map[string]bool{}
		for i := 0; i < 30; i++ {
			doc, err := g1.next()
			if err != nil {
				t.Fatal(err)
			}
			doc2, _ := g2.next()
			doc3, _ := g3.next()
			body, body2, body3 := g1.body(doc), g2.body(doc2), g3.body(doc3)
			if !bytes.Equal(body, body2) {
				t.Fatalf("%s body %d: same seed, different bodies", bench, i)
			}
			differs = differs || !bytes.Equal(body, body3)
			if seen[string(body)] {
				t.Fatalf("%s body %d repeats an earlier mapping", bench, i)
			}
			seen[string(body)] = true
			spec := g1.spec(doc)
			if r := validate.CheckSpec(spec); r.HasErrors() {
				t.Fatalf("%s body %d: %v", bench, i, r.Err())
			}
			replicaProcs := map[model.TaskID]map[model.ProcID]bool{}
			for _, task := range spec.Apps.AllTasks() {
				if task.Kind != model.KindReplica {
					continue
				}
				if replicaProcs[task.Origin] == nil {
					replicaProcs[task.Origin] = map[model.ProcID]bool{}
				}
				pid := spec.Mapping[task.ID]
				if replicaProcs[task.Origin][pid] {
					t.Fatalf("%s body %d: two replicas of %s on processor %d", bench, i, task.Origin, pid)
				}
				replicaProcs[task.Origin][pid] = true
			}
			decoded, err := model.ReadSpec(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s body %d: %v", bench, i, err)
			}
			if validate.Fingerprint(decoded) != validate.Fingerprint(spec) {
				t.Fatalf("%s body %d does not round-trip", bench, i)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 11 and 12 gave identical bodies", bench)
		}
	}
}

func TestRespell(t *testing.T) {
	b, _ := benchmarks.ByName("cruise")
	g, err := newSpecGen(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := g.next()
	if err != nil {
		t.Fatal(err)
	}
	spec, body := g.spec(doc), g.body(doc)
	r1, r2 := respell(body, 1), respell(body, 2)
	if bytes.Equal(r1, r2) || bytes.Equal(r1, body) {
		t.Fatal("respellings are not byte-distinct")
	}
	for _, r := range [][]byte{r1, r2} {
		decoded, err := model.ReadSpec(bytes.NewReader(r))
		if err != nil {
			t.Fatal(err)
		}
		if validate.Fingerprint(decoded) != validate.Fingerprint(spec) {
			t.Error("a respelling changed the canonical spec")
		}
	}
}

// tiny shrinks a workload for smoke runs.
func tiny(w workload) workload {
	w.analyzeOps, w.analyzeBurst = 60, 20
	if w.daemonDSE {
		w.jobPop, w.jobGens = 10, 4
	} else {
		w.pop, w.gens = 10, 4
	}
	return w
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at tiny size, untraced and traced, with
// all of its output checks, and checks that each reports exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wantE2E, wantLayers := benchmarkNames(t)
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)
	keys := func(ms map[string]metric) []string {
		var out []string
		for k := range ms {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	for _, name := range []string{"ga-cruise", "ga-fleet-dtlarge", "daemon-mix"} {
		t.Run(name, func(t *testing.T) {
			m, err := measure(tiny(workloads[name]), 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.problems) > 0 {
				t.Fatalf("checks failed: %v", m.problems)
			}
			e2e := m.endToEnd()
			if got := keys(e2e); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, wantE2E)
			}
			for n, v := range e2e {
				if !(v.Value > 0) {
					t.Errorf("end-to-end %s = %+v", n, v)
				}
			}
			layers, err := m.traced(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got := keys(layers); !reflect.DeepEqual(got, wantLayers) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, wantLayers)
			}
			for _, n := range []string{"core.analyze.us_per_eval", "dse.repair.us_per_eval", "model.read_spec.us_per_req"} {
				if !(layers[n].Value > 0) {
					t.Errorf("per-layer %s = %+v", n, layers[n])
				}
			}
			if len(m.problems) > 0 {
				t.Errorf("traced session checks failed: %v", m.problems)
			}
			doc, _ := json.Marshal(layers)
			t.Logf("%s", doc)
		})
	}
}
