// Package islands implements a parallel-population (island-model)
// multi-objective GA with ring migration — the "known method of diversity
// preservation" the paper cites as its reference [7] and positions SACGA
// against: "A known method of diversity preservation is parallel population
// GA with inter-population migration controlled in a tribe or island based
// framework, which can be extended for Multi-objective GA. However, in this
// work, we try to establish that this objective can be accomplished by a
// simple modification in the traditional single-population GA."
//
// Each island runs an independent NSGA-II-style (µ+λ) loop; every
// MigrationEvery generations each island sends copies of its least-crowded
// front members to the next island on the ring, where they replace the
// worst residents. The ablation experiment uses this as a comparator for
// SACGA's single-population alternative.
//
// The optimizer is the step-wise Engine implementing search.Engine
// (registered as "islands"); drive it with search.Run or search.NewDriver.
package islands

import (
	"encoding/gob"
	"fmt"

	"sacga/internal/ga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/search"
)

func init() {
	search.Register("islands", func() search.Engine { return new(Engine) })
	search.RegisterExtension("islands", func() any { return new(Params) })
	gob.Register(&Snapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// Params is the island-model extension struct carried by
// search.Options.Extra. The zero value selects the defaults; IslandSize 0
// derives the per-island size from Options.PopSize (PopSize/Islands,
// rounded up to even), which keeps registry-driven cross-algorithm sweeps
// budget-matched on total population.
type Params struct {
	// Islands is the ring size (default 4).
	Islands int
	// IslandSize is the population per island; 0 derives it from
	// Options.PopSize. Odd sizes round up.
	IslandSize int
	// MigrationEvery is the migration period in generations; 0 selects
	// the default (10), negative disables migration.
	MigrationEvery int
	// Migrants per island per migration (default 2, capped at
	// IslandSize/2).
	Migrants int
}

// normalize applies the island-model defaults in place, deriving IslandSize
// from popSize (the normalized Options.PopSize) when it is unset.
func (p *Params) normalize(popSize int) {
	if p.Islands <= 0 {
		p.Islands = 4
	}
	if p.IslandSize <= 0 {
		p.IslandSize = max(popSize/p.Islands, 2)
	}
	if p.IslandSize%2 == 1 {
		p.IslandSize++
	}
	if p.MigrationEvery == 0 {
		p.MigrationEvery = 10
	}
	if p.Migrants <= 0 {
		p.Migrants = 2
	}
	if p.Migrants > p.IslandSize/2 {
		p.Migrants = p.IslandSize / 2
	}
}

// Engine is the step-wise island-model driver implementing search.Engine.
// One Step advances every island one (µ+λ) generation and runs the ring
// migration when due; the final Step pools the islands and ranks the
// pooled population, so Population() after Done is the ranked global view.
type Engine struct {
	prob   objective.Problem
	opts   search.Options // normalized
	params Params         // normalized private copy of Options.Extra
	budget search.EvalBudget
	lo, hi []float64
	gen    int

	isles   []ga.Population
	streams []*rng.Stream
	// Islands advance sequentially within a generation, so one arena
	// serves them all: each island's discarded union members become
	// offspring buffers for the next island's variation. The union and
	// child slices are likewise shared scratch.
	arena     ga.Arena
	union     ga.Population
	children  ga.Population
	pooled    ga.Population // reused pooled-view buffer
	finalized bool
}

// Snapshot is the engine-specific checkpoint payload: every island's
// population, packed, and RNG stream position. The generation count lives
// on the enclosing search.Checkpoint. Isles carries the populations in
// checkpoints written before the packed form, and is read only.
type Snapshot struct {
	PackedIsles []ga.Packed
	RNG         []rng.State
	Isles       []ga.Population
}

// Name implements search.Engine.
func (e *Engine) Name() string { return "islands" }

// prepare applies the option/problem wiring shared by Init and Restore. The
// extension struct is copied before it is normalized, so the caller's
// Params stays read-only.
func (e *Engine) prepare(prob objective.Problem, opts search.Options) error {
	p, err := search.Extension[Params](opts)
	if err != nil {
		return fmt.Errorf("islands: %w", err)
	}
	opts.Normalize()
	e.opts, e.params = opts, *p
	e.params.normalize(opts.PopSize)
	e.prob = e.budget.Attach(prob, opts.MaxEvals)
	e.lo, e.hi = prob.Bounds()
	e.gen = 0
	e.finalized = false
	size := e.params.IslandSize
	e.union = make(ga.Population, 0, 2*size)
	e.children = make(ga.Population, 0, size)
	e.pooled = make(ga.Population, 0, e.params.Islands*size)
	return nil
}

// Init implements search.Engine: it seeds, evaluates and ranks every
// island's population.
func (e *Engine) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	e.isles = make([]ga.Population, e.params.Islands)
	e.streams = make([]*rng.Stream, e.params.Islands)
	size, initial := e.params.IslandSize, e.opts.Initial
	var evalErr error
	for k := range e.isles {
		// Island k seeds from its sequential block of Options.Initial and
		// its own stream.
		e.streams[k] = rng.DeriveN(e.opts.Seed, "island", k)
		block := initial[min(k*size, len(initial)):min((k+1)*size, len(initial))]
		e.isles[k] = ga.InitialPopulation(e.streams[k], block, size, e.lo, e.hi)
		if err := e.isles[k].TryEvaluateWith(e.prob, nil, e.opts.Workers); err != nil && evalErr == nil {
			evalErr = err // first island's fault; later islands still seed
		}
		e.isles[k].AssignRanksAndCrowding()
	}
	if evalErr != nil {
		return fmt.Errorf("islands: %w", evalErr)
	}
	return nil
}

// Step implements search.Engine: every island advances one generation in
// ring order, then migration runs when due.
func (e *Engine) Step() error {
	if e.Done() {
		return nil
	}
	var evalErr error
	for k := range e.isles {
		var err error
		e.isles[k], err = e.step(e.isles[k], e.streams[k])
		if err != nil && evalErr == nil {
			evalErr = err // keep the first island's fault; the ring still advances
		}
	}
	if e.params.MigrationEvery > 0 && (e.gen+1)%e.params.MigrationEvery == 0 {
		migrate(e.isles, e.params.Migrants, &e.arena)
	}
	e.gen++
	if e.done() {
		e.finalize()
	}
	if evalErr != nil {
		return fmt.Errorf("islands: %w", evalErr)
	}
	return nil
}

// done is Done without the finalized fast path.
func (e *Engine) done() bool {
	return e.gen >= e.opts.Generations || e.budget.Exhausted()
}

// Done implements search.Engine.
func (e *Engine) Done() bool { return e.finalized || e.done() }

// Generation implements search.Engine.
func (e *Engine) Generation() int { return e.gen }

// Evals implements search.Engine.
func (e *Engine) Evals() int64 { return e.budget.Evals() }

// Population implements search.Engine: the pooled view across islands,
// ranked globally once the run is done. Invalidated by Step.
func (e *Engine) Population() ga.Population {
	if e.finalized {
		return e.pooled
	}
	return e.poolView()
}

// poolView rebuilds the reused pooled buffer from the islands.
func (e *Engine) poolView() ga.Population {
	e.pooled = e.pooled[:0]
	for _, pop := range e.isles {
		e.pooled = append(e.pooled, pop...)
	}
	return e.pooled
}

// finalize pools the islands and assigns global ranks — the one global
// competition, run once when the budget completes.
func (e *Engine) finalize() {
	e.poolView().AssignRanksAndCrowding()
	e.finalized = true
}

// Emigrants implements search.Migrator: deep copies of the k best
// individuals of the pooled view. Ranks are island-local until the final
// pooling, so the ordering mixes per-island fronts — deterministic, and
// biased toward every island's elite, which is what migration wants.
func (e *Engine) Emigrants(k int) ga.Population {
	return ga.TruncateByCrowdedComparison(e.poolView(), k).Clone()
}

// Immigrate implements search.Migrator: migrants are dealt round-robin to
// the islands, and each island installs its share through
// ga.Arena.Immigrate (which caps it at half the island) and is re-ranked.
func (e *Engine) Immigrate(migrants ga.Population) {
	incoming := make([]ga.Population, len(e.isles))
	for j, m := range migrants {
		incoming[j%len(e.isles)] = append(incoming[j%len(e.isles)], m)
	}
	for k, in := range incoming {
		if pop, ok := e.arena.Immigrate(e.isles[k], in); ok {
			e.isles[k] = pop
			e.arena.AssignRanksAndCrowding(pop)
		}
	}
}

// Checkpoint implements search.Engine.
func (e *Engine) Checkpoint() *search.Checkpoint {
	sn := &Snapshot{
		PackedIsles: ga.PackPopulations(e.isles),
		RNG:         make([]rng.State, len(e.streams)),
	}
	for k, s := range e.streams {
		sn.RNG[k] = s.State()
	}
	return &search.Checkpoint{Algo: e.Name(), Gen: e.gen, Evals: e.Evals(), State: sn}
}

// Restore implements search.Engine.
func (e *Engine) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	sn, err := search.StateOf[Snapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("islands: %w", err)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	isles, err := ga.RestorePopulations(sn.PackedIsles, sn.Isles)
	if err != nil {
		return fmt.Errorf("islands: %w", err)
	}
	n := e.params.Islands
	if len(isles) != n || len(sn.RNG) != n {
		return fmt.Errorf("islands: checkpoint has %d islands, options configure %d", len(isles), n)
	}
	e.budget.RestoreEvals(cp.Evals)
	e.gen = cp.Gen
	e.isles = isles
	e.streams = make([]*rng.Stream, n)
	for k := range e.streams {
		e.streams[k] = rng.FromState(sn.RNG[k])
	}
	if e.done() {
		e.finalize()
	}
	return nil
}

// step advances one island by one (µ+λ) NSGA-II generation through the
// shared arena and scratch slices, returning the next population. The
// survivor slice reuses pop's backing array: the union holds its own
// copies of the member pointers, so overwriting pop is safe.
func (e *Engine) step(pop ga.Population, s *rng.Stream) (ga.Population, error) {
	size, arena := e.params.IslandSize, &e.arena
	e.children = nsga2.MakeChildrenInto(s, pop, e.lo, e.hi, size, arena, e.children)
	err := e.children.TryEvaluateWith(e.prob, nil, e.opts.Workers)
	e.union = append(append(e.union[:0], pop...), e.children...)
	arena.AssignRanksAndCrowding(e.union)
	next := arena.TruncateRecycle(e.union, size, pop[:0])
	arena.AssignRanksAndCrowding(next)
	return next, err
}

// migrate sends each island's least-crowded front members (clones) to the
// next island on the ring, where ga.Arena.Immigrate installs them in place
// of its worst residents. Emigrants are selected before any replacement so
// simultaneous migration is order-independent.
func migrate(isles []ga.Population, migrants int, arena *ga.Arena) {
	n := len(isles)
	if n < 2 {
		return
	}
	outbound := make([]ga.Population, n)
	for k, pop := range isles {
		outbound[k] = ga.TruncateByCrowdedComparison(pop, migrants).Clone()
	}
	for k := range isles {
		dst := (k + 1) % n
		if pop, ok := arena.Immigrate(isles[dst], outbound[k]); ok {
			isles[dst] = pop
			arena.AssignRanksAndCrowding(pop)
		}
	}
}
