package dse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestStructuralCacheTrajectoryMatchesDisabled is the DSE-level safety
// guarantee for the cross-candidate structural cache: warm-starting
// sibling candidates must not change a single bit of the GA trajectory —
// same per-generation history, same front, same best design — because
// the warm-started analyses are bound-for-bound identical to cold ones.
func TestStructuralCacheTrajectoryMatchesDisabled(t *testing.T) {
	p := tinyProblem(t)
	base := Options{PopSize: 16, Generations: 8, Seed: 3}

	off := base
	off.StructuralCacheSize = -1
	wantRes, err := Optimize(p, off)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := Optimize(p, base) // zero → default structural cache
	if err != nil {
		t.Fatal(err)
	}

	if len(gotRes.History) != len(wantRes.History) {
		t.Fatalf("history length %d != %d", len(gotRes.History), len(wantRes.History))
	}
	for i := range wantRes.History {
		got, want := gotRes.History[i], wantRes.History[i]
		// Only the structural counters may differ between the runs.
		got.StructHits, got.StructMisses = 0, 0
		want.StructHits, want.StructMisses = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("generation %d: with cache %+v != without %+v", i, got, want)
		}
	}
	if ws := wantRes.Stats; ws.StructHits+ws.StructMisses+ws.WarmStartJobs != 0 {
		t.Fatalf("disabled run reported structural traffic: %+v", ws)
	}
	gs := gotRes.Stats
	if gs.StructMisses == 0 {
		t.Fatal("enabled run never seeded the structural cache")
	}
	if gs.StructHits == 0 || gs.WarmStartJobs == 0 {
		t.Fatalf("enabled run never warm-started a sibling: hits=%d warm=%d",
			gs.StructHits, gs.WarmStartJobs)
	}

	if (gotRes.Best == nil) != (wantRes.Best == nil) {
		t.Fatal("runs disagree on finding a feasible design")
	}
	if gotRes.Best != nil && math.Abs(gotRes.Best.Power-wantRes.Best.Power) > 1e-12 {
		t.Fatalf("best power %v != %v", gotRes.Best.Power, wantRes.Best.Power)
	}
	if len(gotRes.Front) != len(wantRes.Front) {
		t.Fatalf("front size %d != %d", len(gotRes.Front), len(wantRes.Front))
	}
	for i := range wantRes.Front {
		if gotRes.Front[i].Objectives != wantRes.Front[i].Objectives {
			t.Fatalf("front[%d] objectives differ", i)
		}
	}
}

// TestShapeKeyIgnoresMapping: genomes differing only in bindings or
// allocation share a shape (they compile to the same job structure);
// changing any hardening or keep decision separates them.
func TestShapeKeyIgnoresMapping(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(1))
	a := p.RandomGenome(rng)
	b := a.Clone()
	b.Alloc[0] = !b.Alloc[0]
	b.Genes[0].Map++
	b.Genes[0].VoterMap++
	for i := range b.Genes[0].ReplicaMap {
		b.Genes[0].ReplicaMap[i]++
	}
	if a.ShapeKey() != b.ShapeKey() {
		t.Fatal("mapping-only change altered the shape key")
	}
	if a.Key128() == b.Key128() {
		t.Fatal("mapping-only change should alter the full key")
	}
	c := a.Clone()
	c.Keep[0] = !c.Keep[0]
	if a.ShapeKey() == c.ShapeKey() {
		t.Fatal("keep/drop change must alter the shape key")
	}
	d := a.Clone()
	d.Genes[0].K++
	if a.ShapeKey() == d.ShapeKey() {
		t.Fatal("hardening-degree change must alter the shape key")
	}
}
