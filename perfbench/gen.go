package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"mcmap/internal/benchmarks"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/validate"
)

// deriveSeed mixes the benchmark seed with a stream index (splitmix64),
// so every GA run, DSE job and generator of one benchmark run draws its
// own reproducible seed.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// specGen builds validator-clean /analyze bodies for one benchmark: its
// applications hardened with the reference plan, mapped by the
// load-balanced sample mapping and then perturbed by 1 to 4 random
// type-compatible moves that keep replicas of one task on distinct
// processors. Every mapping differs from all earlier ones. A design is
// kept as its difference from the base mapping and its body assembled
// on demand, so a run can hold tens of thousands of them.
type specGen struct {
	arch    *model.Architecture
	apps    *model.AppSet
	base    model.Mapping
	movable []*model.Task // every task but dispatch steps, by ID
	// siblings maps an original task to its replica IDs.
	siblings map[model.TaskID][]model.TaskID
	// dispatch maps a dispatch step to the voter it is co-located with.
	dispatch map[model.TaskID]model.TaskID
	// prefix is the body up to the mapping: architecture and apps.
	prefix []byte
	rng    *rand.Rand
	seen   map[string]bool
}

// design is a generated mapping: the movable tasks (by index) whose
// processor differs from the base mapping, in index order.
type design []placement

type placement struct {
	task int32
	proc model.ProcID
}

func newSpecGen(b *benchmarks.Benchmark, seed int64) (*specGen, error) {
	man, err := b.Hardened()
	if err != nil {
		return nil, fmt.Errorf("hardening %s: %w", b.Name, err)
	}
	g := &specGen{
		arch:     b.Arch,
		apps:     man.Apps,
		base:     b.SampleMapping(man, benchmarks.MapLoadBalance),
		siblings: map[model.TaskID][]model.TaskID{},
		dispatch: map[model.TaskID]model.TaskID{},
		rng:      rand.New(rand.NewSource(seed)),
		seen:     map[string]bool{},
	}
	doc, err := json.Marshal(&model.Spec{Architecture: b.Arch, Apps: man.Apps})
	if err != nil {
		return nil, err
	}
	g.prefix = append(doc[:len(doc)-1:len(doc)-1], `,"mapping":`...)
	for _, t := range man.Apps.AllTasks() {
		switch t.Kind {
		case model.KindDispatch:
			g.dispatch[t.ID] = hardening.VoterID(t.Origin)
		case model.KindReplica:
			g.siblings[t.Origin] = append(g.siblings[t.Origin], t.ID)
			g.movable = append(g.movable, t)
		default:
			g.movable = append(g.movable, t)
		}
	}
	sort.Slice(g.movable, func(i, j int) bool { return g.movable[i].ID < g.movable[j].ID })
	return g, nil
}

// next returns a fresh validator-clean design.
func (g *specGen) next() (design, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		m := g.mapping(nil)
		for moves := 1 + g.rng.Intn(4); moves > 0; moves-- {
			g.move(m, g.movable[g.rng.Intn(len(g.movable))])
		}
		var d design
		for i, t := range g.movable {
			if m[t.ID] != g.base[t.ID] {
				d = append(d, placement{int32(i), m[t.ID]})
			}
		}
		key := fmt.Sprint(d)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		if validate.CheckSpec(&model.Spec{Architecture: g.arch, Apps: g.apps, Mapping: g.mapping(d)}).HasErrors() {
			continue
		}
		return d, nil
	}
	return nil, fmt.Errorf("no new validator-clean mapping in 1000 attempts")
}

// mapping builds the full mapping of a design; dispatch steps follow
// their voters.
func (g *specGen) mapping(d design) model.Mapping {
	m := make(model.Mapping, len(g.base))
	for id, pid := range g.base {
		m[id] = pid
	}
	for _, p := range d {
		m[g.movable[p.task].ID] = p.proc
	}
	for step, voter := range g.dispatch {
		m[step] = m[voter]
	}
	return m
}

// body assembles the /analyze body of a design.
func (g *specGen) body(d design) []byte {
	doc, err := json.Marshal(g.mapping(d))
	if err != nil {
		// A map of string keys to ints always marshals.
		panic(err)
	}
	out := make([]byte, 0, len(g.prefix)+len(doc)+1)
	out = append(append(out, g.prefix...), doc...)
	return append(out, '}')
}

// spec builds the spec of a design.
func (g *specGen) spec(d design) *model.Spec {
	return &model.Spec{Architecture: g.arch, Apps: g.apps, Mapping: g.mapping(d)}
}

// move remaps t to a random processor it can run on, avoiding the
// processors of its sibling replicas.
func (g *specGen) move(m model.Mapping, t *model.Task) {
	taken := map[model.ProcID]bool{}
	if t.Kind == model.KindReplica {
		for _, sib := range g.siblings[t.Origin] {
			if sib != t.ID {
				taken[m[sib]] = true
			}
		}
	}
	var cands []model.ProcID
	for _, p := range g.arch.Procs {
		if t.CanRunOn(p.Type) && !taken[p.ID] {
			cands = append(cands, p.ID)
		}
	}
	if len(cands) > 0 {
		m[t.ID] = cands[g.rng.Intn(len(cands))]
	}
}

// requestClass is one kind of /analyze request in the mix.
type requestClass int

const (
	// classFresh carries a mapping never sent before: the daemon runs
	// the analysis (warm-started by its structural cache).
	classFresh requestClass = iota
	// classRepeat re-sends an answered body byte for byte: the raw
	// result cache answers without decoding.
	classRepeat
	// classRespelled re-sends an answered spec with different bytes:
	// the daemon decodes, validates and fingerprints it, then replays
	// the cached answer.
	classRespelled
)

func (c requestClass) String() string {
	return [...]string{"fresh", "repeat", "respelled"}[c]
}

// classShares is the request mix per block of 20 requests: 70% fresh,
// 20% byte-identical repeats, 10% re-spelled repeats.
var classShares = [...]int{classFresh: 14, classRepeat: 4, classRespelled: 2}

// classSchedule returns the class of every request index below n: each
// block of 20 holds exactly classShares, in a seeded order.
func classSchedule(seed int64, n int) []requestClass {
	var block []requestClass
	for c, k := range classShares {
		for i := 0; i < k; i++ {
			block = append(block, requestClass(c))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]requestClass, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// respell appends JSON whitespace encoding k in binary, so every k gives
// a byte-distinct spelling of the same spec.
func respell(body []byte, k int) []byte {
	out := make([]byte, 0, len(body)+33)
	out = append(out, body...)
	out = append(out, '\n')
	for bit := 0; bit < 32; bit++ {
		if k&(1<<bit) != 0 {
			out = append(out, '\t')
		} else {
			out = append(out, ' ')
		}
	}
	return out
}
