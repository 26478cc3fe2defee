package main

import (
	"fmt"
	"net"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/dse"
)

// runAblation re-runs ga-cruise's GA with each optional layer switched
// off through its public option and prints ga_evals_per_s per row: the
// median over GA runs of the same seeds, each row getting about budget
// of runs. It is an input to deciding which layers earn their keep, not
// a gated result.
func runAblation(seed int64, budget time.Duration) int {
	b, err := benchmarks.ByName("cruise")
	if err != nil {
		fmt.Println(err)
		return 1
	}
	p, err := dse.NewProblem(b.Arch, b.Apps)
	if err != nil {
		fmt.Println(err)
		return 1
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return 1
	}
	served := make(chan error, 1)
	//lint:allow gospawn the island listener's accept loop; closed and waited for below
	go func() { served <- dse.ServeIslands(l) }()
	defer func() {
		l.Close()
		<-served
	}()
	rows := []struct {
		name string
		set  func(*dse.Options)
	}{
		{"default", func(*dse.Options) {}},
		{"FitnessCacheSize:-1", func(o *dse.Options) { o.FitnessCacheSize = -1 }},
		{"StructuralCacheSize:-1", func(o *dse.Options) { o.StructuralCacheSize = -1 }},
		{"DisableBatch", func(o *dse.Options) { o.DisableBatch = true }},
		{"DisableCompiled", func(o *dse.Options) { o.DisableCompiled = true }},
		{"PruneDominated", func(o *dse.Options) { o.PruneDominated = true }},
		{"islands=2 in-process", func(o *dse.Options) { o.Islands, o.MigrationInterval = 2, migrationInterval }},
		{"islands=2 loopback fleet", func(o *dse.Options) {
			o.Islands, o.MigrationInterval = 2, migrationInterval
			o.IslandHosts = []string{l.Addr().String()}
		}},
	}
	w := workloads["ga-cruise"]
	fmt.Printf("ablation: ga-cruise GA, pop %d, %d generations; not a gated result\n", w.pop, w.gens)
	fmt.Printf("%-26s %16s %6s\n", "row", "ga_evals_per_s", "runs")
	for _, row := range rows {
		var rates []float64
		start := time.Now()
		for k := 0; k == 0 || time.Since(start) < budget; k++ {
			opts := dse.Options{PopSize: w.pop, Generations: w.gens, Seed: deriveSeed(seed, streamGA+uint64(k))}
			row.set(&opts)
			t0 := time.Now()
			res, err := dse.Optimize(p, opts)
			if err != nil {
				fmt.Printf("%s: %v\n", row.name, err)
				return 1
			}
			rates = append(rates, float64(res.Stats.Evaluated)/time.Since(t0).Seconds())
		}
		fmt.Printf("%-26s %16.1f %6d\n", row.name, median(rates), len(rates))
	}
	return 0
}
