package validate

import (
	"fmt"

	"mcmap/internal/model"
)

// DSEParams mirrors the tunable fields of the DSE options and problem
// limits for validation. The dse package constructs it (validate must
// not import dse — the dependency points the other way); zero values
// mean "use the default", matching the options semantics.
type DSEParams struct {
	MaxK        int
	MaxReplicas int

	PopSize           int
	ArchiveSize       int
	Generations       int
	MutationRate      float64
	Workers           int
	Islands           int
	MigrationInterval int

	TrackDroppingGain bool
	DisableDropping   bool
}

// maxIndividuals caps Islands × (PopSize + ArchiveSize), the individuals
// a run holds at once. The engine sizes its island, population and
// archive slices from these values before evolving anything, so an
// unbounded request would fail an allocation instead of a check.
const maxIndividuals = 1 << 20

// population returns PopSize, ArchiveSize and Islands after the engine's
// defaulting: non-positive sizes select 100, the population size and 1.
func (p DSEParams) population() (pop, archive, islands int) {
	pop, archive, islands = p.PopSize, p.ArchiveSize, p.Islands
	if pop <= 0 {
		pop = 100
	}
	if archive <= 0 {
		archive = pop
	}
	if islands <= 0 {
		islands = 1
	}
	return pop, archive, islands
}

// CheckDSEParams validates the DSE configuration against the platform
// and reports MC02xx diagnostics. Errors mark configurations the
// chromosome encoding cannot represent, that make the search
// unsatisfiable or that the engine cannot allocate; warnings mark values
// the engine silently replaces with defaults or contradictory
// measurement setups.
func CheckDSEParams(arch *model.Architecture, p DSEParams) *Result {
	r := &Result{}
	loc := "dse options"
	if p.MaxK < 1 {
		r.report("MC0201", Error, loc, fmt.Sprintf("MaxK %d leaves no room for re-execution", p.MaxK),
			"the chromosome needs k >= 1; the paper uses 3")
	} else if p.MaxK > 30 {
		r.report("MC0201", Warning, loc, fmt.Sprintf("MaxK %d inflates Eq. 1 WCETs beyond any schedulable range", p.MaxK),
			"re-execution degrees above a handful never pay off")
	}
	if p.MaxReplicas < 2 {
		r.report("MC0202", Error, loc, fmt.Sprintf("MaxReplicas %d cannot express replication", p.MaxReplicas),
			"replication needs at least 2 replicas; the paper uses 4")
	} else if arch != nil && len(arch.Procs) > 0 && p.MaxReplicas > len(arch.Procs) {
		r.report("MC0202", Warning, loc,
			fmt.Sprintf("MaxReplicas %d exceeds the %d processors available for distinct placement", p.MaxReplicas, len(arch.Procs)),
			"replica counts above the processor count are repaired down every generation")
	}
	if p.PopSize < 0 || p.Generations < 0 || p.ArchiveSize < 0 {
		r.report("MC0203", Warning, loc,
			fmt.Sprintf("negative population sizing (pop %d, archive %d, gens %d) falls back to defaults", p.PopSize, p.ArchiveSize, p.Generations),
			"use 0 to request the default explicitly")
	}
	if pop, archive, islands := p.population(); pop > maxIndividuals || archive > maxIndividuals ||
		islands > maxIndividuals/(pop+archive) {
		r.report("MC0203", Error, loc,
			fmt.Sprintf("%d islands × (population %d + archive %d) exceed the cap of %d individuals", islands, pop, archive, maxIndividuals),
			"the engine allocates every island's population and archive up front; shrink pop, archive or islands")
	}
	if p.MutationRate < 0 || p.MutationRate > 1 {
		r.report("MC0204", Warning, loc,
			fmt.Sprintf("mutation rate %v outside [0, 1] falls back to the default", p.MutationRate),
			"use a per-locus probability, e.g. 0.08")
	}
	if p.Islands < 0 || p.MigrationInterval < 0 {
		r.report("MC0205", Warning, loc,
			fmt.Sprintf("negative island setup (islands %d, migration interval %d) falls back to defaults", p.Islands, p.MigrationInterval),
			"use 0 to request the default explicitly")
	}
	if p.Islands > 0 && p.PopSize > 0 && p.Islands > p.PopSize {
		r.report("MC0205", Warning, loc,
			fmt.Sprintf("%d islands over a population of %d leaves empty islands", p.Islands, p.PopSize),
			"use at most PopSize islands")
	}
	if p.TrackDroppingGain && p.DisableDropping {
		r.report("MC0206", Warning, loc,
			"TrackDroppingGain with DisableDropping measures a rescue ratio that is zero by construction",
			"drop one of the two flags")
	}
	if p.Workers < 0 {
		r.report("MC0207", Warning, loc,
			fmt.Sprintf("negative worker budget %d falls back to GOMAXPROCS", p.Workers),
			"use 0 to request the default explicitly")
	}
	return r
}
