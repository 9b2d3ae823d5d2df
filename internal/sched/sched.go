// Package sched is the multi-engine orchestration subsystem: drivers that
// advance several search.Engine instances generation-wise on the shared
// evaluation pool, with deterministic cross-engine reductions. The paper's
// contribution is mixing global and local competition inside one
// population; this package mixes whole optimizers — the same idea one
// level up, and the layer the ROADMAP's island-parallel and hybrid
// global/local schedule items both reduce to.
//
// Three composable drivers, each itself a search.Engine (one Step = one
// scheduler epoch), registered in the search registry and checkpointable
// as a composite snapshot:
//
//   - ParallelIslands ("parallel-islands") — N replicas of one algorithm
//     stepped concurrently, with ring migration at fixed epochs (the
//     island model the paper sets SACGA against).
//     Generation-level parallelism on top of the evaluation-level
//     parallelism the worker pool already provides.
//   - Relay ("relay") — a chain of engines under one evaluation budget,
//     each leg warm-started from its predecessor's final population: the
//     paper's phase I → phase II transition generalized to arbitrary
//     engine pairs (e.g. NSGA-II global exploration → SACGA's annealed
//     local competition).
//   - Portfolio ("portfolio") — heterogeneous engines raced under a
//     shared budget, with per-epoch hypervolume scoring giving the current
//     leader two extra generations.
//
// ParallelIslands and Portfolio share one replica loop: the concurrent
// epoch, the barrier that drops failed replicas, the budget tally, the
// pooled population and the replica half of the checkpoint are the same
// code, and the cross-process shard coordinator runs it too. The loop
// steps up to GOMAXPROCS replicas at once; the shard coordinator, as many
// as its worker pool has workers.
//
// # Determinism
//
// Every driver is bit-identical to sequential round-robin stepping
// regardless of GOMAXPROCS or how many replicas step at once
// (property-tested).
// The ingredients: each child engine owns its RNG streams, arena and
// buffers, so concurrent Steps share only the evaluation pool (whose
// results are written by index — order-free); cross-engine reductions
// (migration, relay handoff, portfolio scoring) run at epoch barriers in
// engine-index order, never completion order; and the evaluation budget is
// enforced by the scheduler between epochs — child engines never see a
// sibling's count, so a concurrently-advancing total cannot steer an
// engine's control flow.
//
// # Budget
//
// Options.MaxEvals caps the whole ensemble, and the scheduler stops at the
// first epoch boundary at or past the cap. The stop rule is therefore
// "within one epoch" (one generation per concurrently-stepped engine), the
// multi-engine analogue of the single-engine "within one generation"
// contract. Every scheduler counts the same way: its budget is the sum of
// its child engines' own Evals() at the epoch boundary — for Relay, the
// completed legs' counts plus the active leg's. It is the only count a
// replica stepped in another process can give. A dropped replica keeps
// the count of its last completed generation in the sum.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/search"
)

// Registry names of the scheduler engines.
const (
	NameParallelIslands = "parallel-islands"
	NameRelay           = "relay"
	NamePortfolio       = "portfolio"
)

// childOptions builds the options handed to one child engine: the shared
// hyperparameters pass through; the seed is derived per child so replicas
// explore independently; the evaluation cap stays with the scheduler
// (children must never consult the shared live counter — see the package
// determinism contract).
func childOptions(opts search.Options, popSize, generations int, label string, n int, extra any, initial ga.Population) search.Options {
	return search.Options{
		PopSize:     popSize,
		Generations: generations,
		Seed:        rng.ChildSeed(opts.Seed, label, n),
		Initial:     initial,
		Workers:     opts.Workers,
		Extra:       extra,
	}
}

// childProblem wraps prob in a fresh counter for one child engine. The
// child's EvalBudget attaches to THIS counter — created before any
// stepping, count zero, advanced by no other engine — so the child's
// Evals() and checkpoint accounting cover exactly its own evaluations,
// deterministically, however its siblings interleave; the scheduler sums
// those counts into its budget. Every evaluation still reaches prob (the
// wrapper delegates), so a caller's own counter sees them all.
func childProblem(prob objective.Problem) objective.Problem {
	return objective.NewCounter(prob)
}

// runIndexed executes fn(i) for every i in [0,n) across at most `workers`
// goroutines (including the caller), claiming indices through an atomic
// cursor, and returns the lowest-index error. Each index must be
// independent work — the scheduler's epoch barrier is the join at the end.
func runIndexed(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return firstError(errs)
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstError(errs)
}

// firstError returns the lowest-index non-nil error — index order, not
// completion order, so concurrent failures surface deterministically.
func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine %d: %w", i, err)
		}
	}
	return nil
}
