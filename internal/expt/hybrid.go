package expt

import (
	"sacga/internal/sched"
	"sacga/internal/sizing"
)

// Hybrid evaluates the multi-engine schedulers on the integrator problem
// at one evaluation budget, against the plain SACGA run the paper reports:
//
//   - sacga      — the single-engine reference (phase I + annealed II);
//   - relay      — NSGA-II global exploration for a quarter of the budget,
//     handing its population to SACGA for the remainder: the paper's
//     global→local phase transition generalized to an engine pair;
//   - portfolio  — NSGA-II raced against SACGA under the shared budget,
//     per-epoch hypervolume reallocation boosting the leader;
//   - parislands — four concurrent NSGA-II replicas (a quarter of the
//     population each) with ring migration, pooled at the end.
//
// The question each row answers: does mixing whole optimizers buy front
// quality at a fixed number of circuit evaluations, the way mixing
// competition scopes inside one optimizer does?
func Hybrid(c Config) (*Report, error) {
	c.normalize()
	rep := newReport("hybrid", Title("hybrid"))
	total := c.iters(800)
	spec := sizing.PaperSpec()
	variants := []string{"sacga", "relay", "portfolio", "parislands"}
	outs, err := c.sweep(len(variants)*c.Seeds, func(i int) runOut {
		name, seed := variants[i/c.Seeds], c.Seed+int64(i%c.Seeds)
		switch name {
		case "sacga":
			return c.runSACGA(spec, 8, total, seed)
		case "relay":
			return c.run(name, spec, new(sched.Relay), c.opts(total, seed, &sched.RelayParams{Legs: []sched.Leg{
				{Algo: "nsga2", Generations: total / 4},
				{Algo: "sacga", Extra: c.sacgaParams(8, total)},
			}}))
		case "portfolio":
			// Each member gets the full population, so the race consumes
			// ~2x the per-generation evaluations; halving the generation
			// budget keeps the row budget-comparable with the single-engine
			// reference. Members are scored on the reported plane.
			return c.run(name, spec, new(sched.Portfolio), c.opts(max(total/2, 1), seed, &sched.PortfolioParams{
				Members: []sched.Member{{Algo: "nsga2"}, {Algo: "sacga", Extra: c.sacgaParams(8, total)}},
				Project: circuitPoint,
			}))
		default:
			// The replicas split the population, so the per-generation
			// evaluation cost matches the single-engine rows.
			return c.run(name, spec, new(sched.ParallelIslands), c.opts(total, seed, &sched.IslandsParams{
				Replicas: 4, Algo: "nsga2", MigrationEvery: 10, Migrants: 2,
			}))
		}
	})
	if err != nil {
		return rep, err
	}
	tabulateCoverage(rep, variants, c.Seeds, outs)
	return rep, nil
}
