// Package nsga2 implements the elitist non-dominated sorting genetic
// algorithm NSGA-II (Deb et al., 2002) with Deb's constrained-domination
// rule. In the paper's terminology this is "TPG" — the Traditional Purely
// Global competition baseline whose Pareto fronts cluster on the integrator
// problem (fig. 2).
//
// The optimizer is the step-wise Engine implementing search.Engine
// (registered as "nsga2"); drive it with search.Run or search.NewDriver.
package nsga2

import (
	"encoding/gob"
	"fmt"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/search"
)

func init() {
	search.Register("nsga2", func() search.Engine { return new(Engine) })
	gob.Register(&Snapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// Engine is the step-wise NSGA-II driver implementing search.Engine. The
// zero value is ready for Init (or Restore). Steady-state buffers — the
// union, the double-buffered parent population and the arena-recycled
// offspring — make the generation loop allocation-free after warm-up.
type Engine struct {
	prob   objective.Problem
	opts   search.Options
	budget search.EvalBudget
	s      *rng.Stream
	lo, hi []float64
	gen    int

	arena    ga.Arena
	pop      ga.Population
	union    ga.Population
	next     ga.Population
	children ga.Population
}

// Snapshot is the engine-specific checkpoint payload: the RNG position and
// the ranked parent population.
type Snapshot struct {
	RNG rng.State
	// PackedPop is the population, packed.
	PackedPop ga.Packed
	// Pop is the population of a checkpoint written before the packed
	// form; read only.
	Pop ga.Population
}

// Name implements search.Engine.
func (e *Engine) Name() string { return "nsga2" }

// Init implements search.Engine: it normalizes the options, seeds and
// evaluates the initial population, and ranks it.
func (e *Engine) Init(prob objective.Problem, opts search.Options) error {
	if opts.Extra != nil {
		return fmt.Errorf("nsga2: %w", &search.ExtraTypeError{Got: fmt.Sprintf("%T", opts.Extra)})
	}
	e.prepare(prob, opts)
	e.s = rng.Derive(e.opts.Seed, "nsga2")
	e.pop = ga.InitialPopulation(e.s, e.opts.Initial, e.opts.PopSize, e.lo, e.hi)
	evalErr := e.pop.TryEvaluateWith(e.prob, nil, e.opts.Workers)
	e.arena.AssignRanksAndCrowding(e.pop)
	if evalErr != nil {
		return fmt.Errorf("nsga2: %w", evalErr)
	}
	return nil
}

// prepare applies the option/problem wiring shared by Init and Restore.
func (e *Engine) prepare(prob objective.Problem, opts search.Options) {
	opts.Normalize()
	if opts.PopSize%2 == 1 {
		opts.PopSize++
	}
	e.opts = opts
	e.prob = e.budget.Attach(prob, opts.MaxEvals)
	e.lo, e.hi = prob.Bounds()
	e.gen = 0
	e.union = make(ga.Population, 0, 2*opts.PopSize)
	e.next = make(ga.Population, 0, opts.PopSize)
	e.children = make(ga.Population, 0, opts.PopSize)
}

// Step implements search.Engine: one (µ+λ) generation — variation through
// the offspring arena, evaluation, non-dominated sort and truncation.
func (e *Engine) Step() error {
	if e.Done() {
		return nil
	}
	cfg := &e.opts
	e.children = MakeChildrenInto(e.s, e.pop, e.lo, e.hi, cfg.PopSize, &e.arena, e.children)
	evalErr := e.children.TryEvaluateWith(e.prob, nil, cfg.Workers)
	e.union = append(append(e.union[:0], e.pop...), e.children...)
	e.arena.AssignRanksAndCrowding(e.union)
	e.next = e.arena.TruncateRecycle(e.union, cfg.PopSize, e.next)
	e.pop, e.next = e.next, e.pop
	// Re-rank the survivors among themselves so selection in the next
	// generation and observers see self-consistent ranks.
	e.arena.AssignRanksAndCrowding(e.pop)
	e.gen++
	if evalErr != nil {
		// The generation completed — quarantined children simply lost the
		// selection — so the engine stays valid; the error tells the driver
		// the run is degraded.
		return fmt.Errorf("nsga2: %w", evalErr)
	}
	return nil
}

// Done implements search.Engine.
func (e *Engine) Done() bool {
	return e.gen >= e.opts.Generations || e.budget.Exhausted()
}

// Generation implements search.Engine.
func (e *Engine) Generation() int { return e.gen }

// Population implements search.Engine. The view is invalidated by Step.
func (e *Engine) Population() ga.Population { return e.pop }

// Evals implements search.Engine.
func (e *Engine) Evals() int64 { return e.budget.Evals() }

// Checkpoint implements search.Engine.
func (e *Engine) Checkpoint() *search.Checkpoint {
	return &search.Checkpoint{
		Algo:  e.Name(),
		Gen:   e.gen,
		Evals: e.Evals(),
		State: &Snapshot{RNG: e.s.State(), PackedPop: ga.PackPopulation(e.pop)},
	}
}

// Restore implements search.Engine: it rebuilds the checkpointed run under
// the same problem and options, without re-evaluating anything.
func (e *Engine) Restore(prob objective.Problem, opts search.Options, cp *Checkpoint) error {
	sn, err := search.StateOf[Snapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("nsga2: %w", err)
	}
	if opts.Extra != nil {
		return fmt.Errorf("nsga2: %w", &search.ExtraTypeError{Got: fmt.Sprintf("%T", opts.Extra)})
	}
	pop, err := ga.RestorePopulation(sn.PackedPop, sn.Pop)
	if err != nil {
		return fmt.Errorf("nsga2: %w", err)
	}
	e.prepare(prob, opts)
	e.budget.RestoreEvals(cp.Evals)
	e.s = rng.FromState(sn.RNG)
	e.pop = pop
	e.gen = cp.Gen
	return nil
}

// Emigrants implements search.Migrator: deep copies of the engine's k
// crowded-comparison-best individuals, for cross-engine migration under the
// multi-engine scheduler.
func (e *Engine) Emigrants(k int) ga.Population {
	return ga.TruncateByCrowdedComparison(e.pop, k).Clone()
}

// Immigrate implements search.Migrator through ga.Arena.Immigrate, and
// re-ranks the population.
func (e *Engine) Immigrate(migrants ga.Population) {
	if pop, ok := e.arena.Immigrate(e.pop, migrants); ok {
		e.pop = pop
		e.arena.AssignRanksAndCrowding(e.pop)
	}
}

// Checkpoint aliases search.Checkpoint in this package's signatures.
type Checkpoint = search.Checkpoint

// MakeChildrenInto builds a full offspring population of size n from pop
// using binary crowded-tournament selection, crossover and mutation.
// Children are written into recycled individual buffers from
// arena.Offspring and appended to dst's backing array (nil allocates one),
// so a warmed-up generation loop allocates nothing for variation. The
// offspring genes depend only on s and pop, never on the arena's state.
// Exported for the variation benchmarks, which time it on its own.
func MakeChildrenInto(s *rng.Stream, pop ga.Population, lo, hi []float64, n int, arena *ga.Arena, dst ga.Population) ga.Population {
	if dst == nil {
		dst = make(ga.Population, 0, n)
	}
	dst = dst[:0]
	for len(dst) < n {
		p1 := ga.TournamentSelect(s, pop)
		p2 := ga.TournamentSelect(s, pop)
		c1, c2 := arena.Offspring(), arena.Offspring()
		ga.CrossoverInto(s, p1, p2, c1, c2, lo, hi)
		ga.Mutate(s, c1, lo, hi)
		ga.Mutate(s, c2, lo, hi)
		dst = append(dst, c1)
		if len(dst) < n {
			dst = append(dst, c2)
		} else {
			arena.Recycle(c2) // odd n: the dangling child's buffers return
		}
	}
	return dst
}
