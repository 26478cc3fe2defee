package dse

import (
	"math"
	"reflect"
	"testing"

	"mcmap/internal/model"
)

// TestMemoizedTrajectoryMatchesUncached is the memoization safety
// guarantee: for identical seeds, a cached run must reproduce the exact
// GenStat trajectory (and final front) of an uncached run, while
// actually analyzing fewer candidates.
func TestMemoizedTrajectoryMatchesUncached(t *testing.T) {
	p := tinyProblem(t)
	base := Options{PopSize: 16, Generations: 8, Seed: 3}

	uncached := base
	uncached.FitnessCacheSize = -1
	wantRes, err := Optimize(p, uncached)
	if err != nil {
		t.Fatal(err)
	}

	cached := base // zero FitnessCacheSize → default cache
	gotRes, err := Optimize(p, cached)
	if err != nil {
		t.Fatal(err)
	}

	if len(gotRes.History) != len(wantRes.History) {
		t.Fatalf("history length %d != %d", len(gotRes.History), len(wantRes.History))
	}
	for i := range wantRes.History {
		got, want := gotRes.History[i], wantRes.History[i]
		// The cache counters legitimately differ (memoized runs perform
		// fewer Analyze calls, so structural-cache traffic shrinks too);
		// everything the GA's trajectory is made of must not.
		got.CacheHits, got.CacheMisses = 0, 0
		want.CacheHits, want.CacheMisses = 0, 0
		got.StructHits, got.StructMisses = 0, 0
		want.StructHits, want.StructMisses = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("generation %d: cached %+v != uncached %+v", i, got, want)
		}
	}

	if (gotRes.Best == nil) != (wantRes.Best == nil) {
		t.Fatal("cached and uncached runs disagree on finding a feasible design")
	}
	if gotRes.Best != nil && math.Abs(gotRes.Best.Power-wantRes.Best.Power) > 1e-12 {
		t.Fatalf("best power %v != %v", gotRes.Best.Power, wantRes.Best.Power)
	}
	if len(gotRes.Front) != len(wantRes.Front) {
		t.Fatalf("front size %d != %d", len(gotRes.Front), len(wantRes.Front))
	}
	for i := range wantRes.Front {
		if gotRes.Front[i].Objectives != wantRes.Front[i].Objectives {
			t.Fatalf("front[%d] objectives %v != %v", i,
				gotRes.Front[i].Objectives, wantRes.Front[i].Objectives)
		}
	}

	// Aggregate statistics must match too (cache counters aside).
	gs, ws := gotRes.Stats, wantRes.Stats
	if gs.Evaluated != ws.Evaluated || gs.Feasible != ws.Feasible {
		t.Fatalf("stats diverged: cached %+v uncached %+v", gs, ws)
	}

	if ws.CacheHits != 0 || ws.CacheMisses != 0 {
		t.Fatalf("uncached run reported cache traffic: %+v", ws)
	}
	if gs.CacheHits+gs.CacheMisses != gs.Evaluated {
		t.Fatalf("hits(%d) + misses(%d) != evaluated(%d)", gs.CacheHits, gs.CacheMisses, gs.Evaluated)
	}
	if gs.CacheHits == 0 {
		t.Fatal("expected cache hits on a converging GA run (duplicate genomes are the norm)")
	}
}

// TestMemoizationTracksDroppingGain checks the cached path also replays
// the TrackDroppingGain statistics faithfully.
func TestMemoizationTracksDroppingGain(t *testing.T) {
	p := tinyProblem(t)
	base := Options{PopSize: 12, Generations: 6, Seed: 7, TrackDroppingGain: true}

	uncached := base
	uncached.FitnessCacheSize = -1
	want, err := Optimize(p, uncached)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Optimize(p, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.RescuedByDropping != want.Stats.RescuedByDropping ||
		got.Stats.InfeasibleNoDrop != want.Stats.InfeasibleNoDrop {
		t.Fatalf("dropping-gain stats diverged: cached %+v uncached %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Stats.TechniqueCounts, want.Stats.TechniqueCounts) {
		t.Fatalf("technique counts diverged: %v != %v",
			got.Stats.TechniqueCounts, want.Stats.TechniqueCounts)
	}
}

// TestCloneForIsolation pins cloneFor's sharing contract: the scalar
// fields the selectors mutate (Fitness) must be per-clone, while the
// immutable report views (GraphWCRT, Dropped — written only during
// evaluation) are shared with the original instead of deep-copied.
func TestCloneForIsolation(t *testing.T) {
	orig := &Individual{
		Power:     4.2,
		Fitness:   1,
		GraphWCRT: []model.Time{1, 2, 3},
		Dropped:   []string{"x"},
	}
	g := &Genome{}
	cl := orig.cloneFor(g)
	if cl.Genome != g {
		t.Fatal("clone not re-attributed")
	}
	cl.Fitness = 99
	if orig.Fitness != 1 {
		t.Fatalf("Fitness mutation leaked into the original: %+v", orig)
	}
	if &cl.GraphWCRT[0] != &orig.GraphWCRT[0] || &cl.Dropped[0] != &orig.Dropped[0] {
		t.Fatal("report views should be shared, not copied")
	}
}
