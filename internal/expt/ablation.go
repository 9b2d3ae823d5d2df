package expt

import (
	"sacga/internal/sacga"
	"sacga/internal/sched"
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
//   - islands        — the paper's reference [7] alternative: five NSGA-II
//     islands (parallel-islands) with ring migration at the same
//     evaluation budget.
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
	outs, err := c.sweep(len(variants)*c.Seeds, func(i int) runOut {
		name, seed := variants[i/c.Seeds], c.Seed+int64(i%c.Seeds)
		switch name {
		case "tpg":
			return c.runTPG(spec, total, seed)
		case "local-only":
			p := c.sacgaParams(8, total)
			p.LocalOnly = true
			return c.run(name, spec, new(sacga.Engine), c.opts(total, seed, p))
		case "instant-global":
			p := c.sacgaParams(8, total)
			p.Shape = instantGlobalShape()
			return c.run(name, spec, new(sacga.Engine), c.opts(total, seed, p))
		case "sacga":
			return c.runSACGA(spec, 8, total, seed)
		default:
			// Five islands of a fifth of the population each (at least 4)
			// and the same generation count: an equal evaluation budget.
			size := max(c.PopSize/5, 4)
			return c.run(name, spec, new(sched.ParallelIslands), search.Options{PopSize: 5 * size, Generations: total, Seed: seed,
				Extra: &sched.IslandsParams{Replicas: 5, Algo: "nsga2", MigrationEvery: 10, Migrants: 2}})
		}
	})
	if err != nil {
		return rep, err
	}
	tabulateCoverage(rep, variants, c.Seeds, outs)
	if mixBeatsExtremes(rep.Values) {
		rep.linef("annealed mix beats TPG and both extremes — the paper's central design argument")
		rep.Values["mix_beats_extremes"] = 1
	} else {
		rep.Values["mix_beats_extremes"] = 0
	}
	return rep, nil
}

// tabulateCoverage reports each variant's mean coverage hypervolume and
// lowest covered load over its seeds, read from a variant-major sweep.
func tabulateCoverage(rep *Report, variants []string, seeds int, outs []runOut) {
	width := 0
	for _, name := range variants {
		width = max(width, len(name))
	}
	for vi, name := range variants {
		hv := make([]float64, seeds)
		minCL := make([]float64, seeds)
		for s, o := range outs[vi*seeds : (vi+1)*seeds] {
			hv[s], minCL[s] = o.hvCover, o.minCL*1e12
		}
		rep.Values["hv_"+name] = stats.Mean(hv)
		rep.Values["min_cl_pF_"+name] = stats.Mean(minCL)
		rep.linef("%-*s coverage-HV %.2f, lowest covered load %.2f pF", width, name, stats.Mean(hv), stats.Mean(minCL))
	}
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
