// Command perfbench is mcmap's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output it produced, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced session) as the last line of standard output.
//
//	bash perfbench/run.sh --workload ga-cruise --seed 1 --seconds 20 --trace 0
//
// The workloads are described in workloads.json. Every input is derived
// from -seed; the program under test sees only the generated inputs.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var workloadsDoc []byte

// reference is the part of workloads.json the checks read.
type reference struct {
	ReferenceSeed int64 `json:"reference_seed"`
	Workloads     map[string]struct {
		Digest string `json:"reference_digest"`
	} `json:"workloads"`
}

// Seed streams: each consumer of randomness derives its seeds from the
// benchmark seed and its own stream (see deriveSeed).
const (
	streamSpecs    = 1
	streamSchedule = 2
	streamReplay   = 3
	streamGA       = 1000 // + GA run index
	streamJobs     = 2000 // + job index
)

// setupReps is how many times set-up runs; setup_s is their median and
// the last rig is the one measured.
const setupReps = 5

// warmBodies is the number of /analyze bodies set-up sends.
const warmBodies = 8

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run (ga-cruise, ga-fleet-dtlarge, daemon-mix)")
		seed      = flag.Int64("seed", 1, "seed every input is derived from")
		seconds   = flag.Int("seconds", 20, "measurement window in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced session and prints per-layer metrics")
		out       = flag.String("out", ".bench_build", "directory for span files")
		ablation  = flag.Bool("ablation", false, "print ga_evals_per_s of ga-cruise with each optional layer off (not a gated result)")
		reference = flag.Bool("reference", false, "print the reference digests of workloads.json for -seed")
	)
	flag.Parse()
	printEnv()
	switch {
	case *ablation:
		return runAblation(*seed, time.Duration(*seconds)*time.Second)
	case *reference:
		return printReference(*seed)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	m, err := measure(w, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	metrics := m.endToEnd()
	if *trace == 1 {
		metrics, err = m.traced(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced session: %v\n", err)
			return 1
		}
	}
	printResult(m, metrics)
	if len(m.problems) > 0 {
		return 1
	}
	return 0
}

// printEnv prints the facts every result set carries.
func printEnv() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(m *measurement, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n, v := range metrics {
		names = append(names, n)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// No samples (a failed run): keep the result line valid JSON.
			v.Value = 0
			metrics[n] = v
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, note := range m.notes {
		fmt.Println("note:", note)
	}
	for _, p := range m.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(m.problems) == 0, m.attempted, m.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(line))
}

// writeTrace writes the spans and the full per-layer table of a traced
// session under dir/trace.
func writeTrace(dir string, m *measurement, rec *recorder, layers map[string]metric) error {
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", m.w.name, m.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{"workload": m.w.name, "seed": m.seed,
		"layers": layers, "notes": m.notes}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", doc, 0o644); err != nil {
		return err
	}
	m.notes = append(m.notes, "spans and the full layer table written to "+base+".{spans.jsonl,layers.json}")
	return nil
}

func printReference(seed int64) int {
	out := map[string]string{}
	for _, name := range []string{"ga-cruise", "ga-fleet-dtlarge", "daemon-mix"} {
		d, err := referenceDigest(workloads[name], seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		out[name] = d
	}
	doc, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(strings.TrimSpace(string(doc)))
	return 0
}
