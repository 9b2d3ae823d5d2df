package expt

import (
	"time"

	"sacga/internal/islands"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/stats"
)

// Ablation isolates SACGA's design choices on the integrator problem at
// one evaluation budget:
//
//   - TPG            — no partitions at all (NSGA-II baseline);
//   - local-only     — partitions but no global competition until the very
//     end (the paper's §4.3 variant, expected to converge slowly);
//   - instant-global — partitions whose locally-superior members ALWAYS
//     join the global competition (annealing removed, probability pinned
//     at ~1);
//   - SACGA          — the full annealed mix (eqns. 2–4);
//   - islands        — the paper's reference [7] alternative: parallel
//     subpopulations with ring migration at the same evaluation budget.
//
// The paper's argument is that the annealed middle ground beats both
// extremes; the islands row checks its claim that the simpler
// single-population modification suffices against the classic
// diversity-preservation machinery.
func Ablation(c Config) (*Report, error) {
	c.normalize()
	rep := newReport("ablation", Title("ablation"))
	total := c.iters(800)
	spec := sizing.PaperSpec()

	variants := []string{"tpg", "local-only", "instant-global", "sacga", "islands"}
	hv := make(map[string][]float64, len(variants))
	minCL := make(map[string][]float64, len(variants))
	type job struct {
		vi, si int
	}
	var jobs []job
	for vi := range variants {
		for si := 0; si < c.Seeds; si++ {
			jobs = append(jobs, job{vi, si})
		}
	}
	results := make([]runOut, len(jobs))
	c.parallelRuns(len(jobs), func(i int) {
		j := jobs[i]
		seed := c.Seed + int64(j.si)
		switch variants[j.vi] {
		case "tpg":
			results[i] = c.runTPG(spec, total, seed)
		case "local-only":
			results[i] = c.runLocalOnly(spec, 8, total, seed)
		case "instant-global":
			results[i] = c.runSACGAShaped("instant-global", spec, 8, total, seed, instantGlobalShape())
		case "sacga":
			results[i] = c.runSACGA(spec, 8, total, seed)
		case "islands":
			results[i] = c.runIslands(spec, total, seed)
		}
	})
	if err := runsErr(results); err != nil {
		return rep, err
	}
	for i, j := range jobs {
		name := variants[j.vi]
		hv[name] = append(hv[name], results[i].hvCover)
		minCL[name] = append(minCL[name], results[i].minCL*1e12)
	}
	for _, name := range variants {
		rep.Values["hv_"+name] = stats.Mean(hv[name])
		rep.Values["min_cl_pF_"+name] = stats.Mean(minCL[name])
		rep.linef("%-14s coverage-HV %.2f, lowest covered load %.2f pF",
			name, stats.Mean(hv[name]), stats.Mean(minCL[name]))
	}
	if mixBeatsExtremes(rep.Values) {
		rep.linef("annealed mix beats TPG and both extremes — the paper's central design argument")
		rep.Values["mix_beats_extremes"] = 1
	} else {
		rep.Values["mix_beats_extremes"] = 0
	}
	return rep, nil
}

// mixBeatsExtremes is the ablation's verdict on the paper's central design
// argument, read from the mean coverage hypervolumes in values (lower is
// better): SACGA's annealed mix must do at least as well as TPG and as
// both competition extremes, local-only and instant-global. A NaN fails.
func mixBeatsExtremes(values map[string]float64) bool {
	for _, rival := range []string{"tpg", "local-only", "instant-global"} {
		if !(values["hv_sacga"] <= values["hv_"+rival]) {
			return false
		}
	}
	return true
}

// instantGlobalShape pins the participation probability at ~1 for every
// slot and iteration: global competition from the first phase-II step.
func instantGlobalShape() *sacga.Shape {
	return &sacga.Shape{K1: 1, K2: 0, K3: 1, Alpha: 1e12, Tinit: 2}
}

// runLocalOnly digests the §4.3 local-competition-only variant.
func (c *Config) runLocalOnly(spec sizing.Spec, m, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	clLo, clHi := sizing.ObjectiveRangeCL()
	start := time.Now()
	res, err := run(new(sacga.Engine), prob, search.Options{
		PopSize:     c.PopSize,
		Generations: total,
		Seed:        seed,
		Extra: &sacga.Params{
			Partitions:         m,
			PartitionObjective: 1,
			PartitionLo:        clLo,
			PartitionHi:        clHi,
			LocalOnly:          true,
		},
	})
	out := digest("local-only", res.Front, prob.Count(), time.Since(start), 0)
	out.err = err
	return out
}

// runIslands digests the island-model comparator at an equal evaluation
// budget (islands × islandSize = PopSize, same generation count).
func (c *Config) runIslands(spec sizing.Spec, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	nIslands := 5
	size := c.PopSize / nIslands
	if size < 4 {
		size = 4
	}
	start := time.Now()
	res, err := run(new(islands.Engine), prob, search.Options{
		PopSize:     nIslands * size,
		Generations: total,
		Seed:        seed,
		Extra: &islands.Params{
			Islands:        nIslands,
			IslandSize:     size,
			MigrationEvery: 10,
			Migrants:       2,
		},
	})
	out := digest("islands", res.Front, prob.Count(), time.Since(start), 0)
	out.err = err
	return out
}
