// Package search is the unified driver API over every optimizer in this
// repository. The three algorithms — nsga2 (the paper's TPG baseline),
// sacga and mesacga — and the schedulers built from them (package sched's
// parallel-islands is the island model the paper sets SACGA against)
// implement one step-wise Engine interface, share one Options struct for
// the common hyperparameters, and are driven by one Run loop that provides
// context cancellation, per-generation Observer callbacks, an evaluation
// budget, and deterministic checkpoint/resume.
//
// The package exists because the paper's contribution is *orchestration*:
// global and local competition mixed phase by phase. Orchestration needs
// generation-level control — score a run in flight (figs. 9/10's
// per-generation hypervolume traces), stop it on a budget or a deadline,
// snapshot it, or interleave engines in hybrid schedules — none of which a
// monolithic Run(prob, cfg) call can offer.
//
// # Lifecycle
//
//	eng, _ := search.New("sacga")              // or &sacga.Engine{} directly
//	res, err := search.Run(ctx, eng, prob, search.Options{
//	        PopSize:     100,
//	        Generations: 800,
//	        Seed:        1,
//	        Extra:       &sacga.Params{Partitions: 8, ...},
//	}, observers...)
//
// Run calls Init once, then Step until Done (or the context is cancelled,
// or Options.MaxEvals is exhausted), invoking every Observer after each
// generation. For manual control, call Init/Step/Done yourself or use a
// Driver. Engines are NOT safe for concurrent use; drive each from one
// goroutine.
//
// # Checkpoint / resume
//
// Checkpoint returns a deep snapshot — RNG stream positions, the
// population(s) with cached objectives, and the engine's phase bookkeeping.
// Restore on a fresh engine rebuilds the exact state: continuing a restored
// run is bit-identical to never having stopped (property-tested for every
// engine). Snapshots never re-evaluate the problem, so resuming
// does not perturb evaluation counts.
package search

import (
	"sacga/internal/ga"
	"sacga/internal/objective"
)

// Engine is one optimizer behind the step-wise driver API. Implementations
// register themselves under a canonical name (Register) so callers can
// select algorithms by string.
//
// The contract:
//   - Init must fully prepare the run (seed the population, evaluate it,
//     normalize options); it may be called once per engine value.
//   - Step advances exactly one generation: one offspring population bred,
//     evaluated and selected. Engines fold phase transitions (e.g. SACGA's
//     phase I → II boundary, MESACGA's re-gridding) into the Step that
//     crosses them, so one Step always costs about one generation of
//     evaluations.
//   - Done reports whether the run is complete — the generation budget is
//     consumed or Options.MaxEvals is exhausted. Step on a Done engine is a
//     no-op.
//   - Population returns a live view of the current population, valid until
//     the next Step (engines recycle buffers; Clone what must be kept).
//   - Checkpoint/Restore snapshot and rebuild the exact run state; see the
//     package comment.
type Engine interface {
	// Name is the engine's canonical registry name ("nsga2", "sacga",
	// "mesacga", "parallel-islands", ...).
	Name() string
	// Init prepares a run of prob under opts. It evaluates the initial
	// population, so it consumes evaluation budget.
	Init(prob objective.Problem, opts Options) error
	// Step advances one generation. Calling Step when Done is a no-op.
	Step() error
	// Done reports whether the run has completed its budget.
	Done() bool
	// Generation is the number of generations executed so far (including
	// any executed before a checkpoint this engine was restored from).
	Generation() int
	// Population is a live view of the current population. Invalidated by
	// the next Step.
	Population() ga.Population
	// Evals is the number of objective evaluations consumed by this run so
	// far (including evaluations before a restored checkpoint).
	Evals() int64
	// Checkpoint deep-snapshots the run state.
	Checkpoint() *Checkpoint
	// Restore rebuilds the run captured by cp on this engine, under the
	// same problem and options the original run used. It replaces Init.
	Restore(prob objective.Problem, opts Options, cp *Checkpoint) error
}

// Result is the outcome of driving an Engine to completion.
type Result struct {
	// Final is the last population — a live view of engine buffers, valid
	// until the engine is driven further (Clone to keep).
	Final ga.Population
	// Front is the constrained non-dominated subset of Final: the one
	// global competition the paper performs at the end of every run.
	Front ga.Population
	// Generations executed (across resume boundaries).
	Generations int
	// Evals is the number of objective evaluations consumed.
	Evals int64
}
