package sched

import (
	"errors"
	"fmt"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// replicaLoop is the epoch loop ParallelIslands and Portfolio share: a set
// of replica engines, each over its own counter, advanced concurrently one
// epoch per Step under the shared fault policy. The barrier drops failed
// replicas in index order and tallies the budget; the pooled population is
// ranked once, when the loop finishes. It implements Done, Generation,
// Evals and Population for both schedulers, and the replica half of their
// checkpoints.
//
// A dead replica is no longer stepped, but its last-good population stays
// in the pooled view and its count in the budget.
type replicaLoop struct {
	name    string // the scheduler's engine name, for errors
	opts    search.Options
	workers int // replicas stepped at once: Ensemble's width, or 0 for GOMAXPROCS
	retries int
	engines []search.Engine
	probs   []objective.Problem // per-replica counters over the problem (own accounting)
	options func(i int) search.Options
	evals   int64 // the sum of the replicas' Evals() at the last barrier: the scheduler's budget
	epoch   int
	pooled  ga.Population
	final   bool

	dead     []bool
	dropped  []int
	errs     []error
	reported bool
	fails    []error // per-epoch scratch, written by index from the stepping goroutines
}

// errorf prefixes an error with the package and the scheduler's name.
func (l *replicaLoop) errorf(format string, args ...any) error {
	return fmt.Errorf("sched: "+l.name+": "+format, args...)
}

// reset builds n uninitialized replicas with newEngine, each over a fresh
// counter of prob, and clears the loop; options(i) is the configuration
// replica i is initialized and restored with.
func (l *replicaLoop) reset(prob objective.Problem, opts search.Options, n int,
	newEngine func(i int) (search.Engine, error), options func(i int) search.Options) error {
	opts.Normalize()
	l.opts, l.options = opts, options
	l.epoch, l.evals, l.final, l.pooled = 0, 0, false, nil
	l.engines = make([]search.Engine, n)
	l.probs = make([]objective.Problem, n)
	for i := range l.engines {
		eng, err := newEngine(i)
		if err != nil {
			return err
		}
		l.engines[i], l.probs[i] = eng, childProblem(prob)
	}
	l.dead = make([]bool, n)
	l.dropped, l.errs, l.reported = nil, nil, false
	l.fails = make([]error, n)
	return nil
}

// init initializes every replica, concurrently when the worker bound
// allows, and tallies the budget — also after a quarantining Init, whose
// replicas are whole. A replica whose Init failed outright may hold no
// count to read (nothing attached, no leg started); it counts 0.
func (l *replicaLoop) init() error {
	counts := make([]int64, len(l.engines))
	err := runIndexed(len(l.engines), l.workers, func(i int) error {
		err := l.engines[i].Init(l.probs[i], l.options(i))
		var ee *objective.EvalError
		if err == nil || errors.As(err, &ee) {
			counts[i] = l.engines[i].Evals()
		}
		return err
	})
	for _, n := range counts {
		l.evals += n
	}
	return err
}

// step runs one epoch: every live replica advances up to gens(i)
// generations under stepWithRetry, concurrently up to the worker bound,
// and the barrier drops the replicas that failed, in index order. Unless
// none survives, the epoch is then counted and between runs (the
// scheduler's own barrier work) before the done check. The accumulated
// *ReplicaError is returned by the Step that finalizes the loop.
func (l *replicaLoop) step(gens func(i int) int, between func()) error {
	if l.Done() {
		return nil
	}
	clear(l.fails)
	runIndexed(len(l.engines), l.workers, func(i int) error {
		eng := l.engines[i]
		for g := 0; !l.dead[i] && g < gens(i) && !eng.Done(); g++ {
			if err := stepWithRetry(eng, l.retries); err != nil {
				l.fails[i] = err
				break
			}
		}
		return nil
	})
	for i, err := range l.fails {
		if err != nil {
			l.drop(i, err)
		}
	}
	l.tally()
	if !l.allDead() {
		l.epoch++
		between()
		if !l.done() {
			return nil
		}
	}
	l.finalize()
	return l.takeErr()
}

// stepWithRetry advances one engine under the scheduler's shared fault
// policy: a failing Step is retried at once, up to `retries` more times,
// each attempt under search.GuardedStep, which recovers a panic as an
// error. Retrying a quarantining engine is meaningful because engines
// complete their generation before reporting the fault: each attempt is a
// fresh generation that may evaluate cleanly.
func stepWithRetry(eng search.Engine, retries int) error {
	for attempt := 0; ; attempt++ {
		err := search.GuardedStep(eng, 0)
		if err == nil || attempt >= retries {
			return err
		}
	}
}

// drop retires replica i. Called at the barrier in index order, so
// Dropped is deterministic at any worker count.
func (l *replicaLoop) drop(i int, err error) {
	l.dead[i] = true
	l.dropped = append(l.dropped, i)
	l.errs = append(l.errs, err)
}

// allDead reports whether no replica survives.
func (l *replicaLoop) allDead() bool {
	for _, d := range l.dead {
		if !d {
			return false
		}
	}
	return len(l.dead) > 0
}

// takeErr builds the run's ReplicaError, once: later calls return nil so a
// finalized scheduler does not re-report on subsequent (no-op) Steps.
func (l *replicaLoop) takeErr() error {
	if l.reported || len(l.dropped) == 0 {
		return nil
	}
	l.reported = true
	return &ReplicaError{
		Scheduler: l.name,
		Dropped:   append([]int(nil), l.dropped...),
		Errs:      append([]error(nil), l.errs...),
		AllDead:   l.allDead(),
	}
}

// tally reads every replica's own evaluation count at the barrier; their
// sum is the scheduler's budget.
func (l *replicaLoop) tally() {
	l.evals = 0
	for _, eng := range l.engines {
		l.evals += eng.Evals()
	}
}

// done is Done without the finalized fast path: the budget is exhausted or
// every replica still alive has completed (all-dead finalizes in step).
func (l *replicaLoop) done() bool {
	if l.opts.MaxEvals > 0 && l.evals >= l.opts.MaxEvals {
		return true
	}
	for i, eng := range l.engines {
		if !l.dead[i] && !eng.Done() {
			return false
		}
	}
	return true
}

// Done implements search.Engine.
func (l *replicaLoop) Done() bool { return l.final || l.done() }

// Generation implements search.Engine: the number of epochs executed.
func (l *replicaLoop) Generation() int { return l.epoch }

// Evals implements search.Engine: evaluations consumed across every
// replica, as tallied at the last epoch barrier.
func (l *replicaLoop) Evals() int64 { return l.evals }

// Population implements search.Engine: the pooled view across replicas,
// globally ranked once the run is done. Invalidated by Step.
func (l *replicaLoop) Population() ga.Population {
	if l.final {
		return l.pooled
	}
	return l.pool()
}

// pool rebuilds the concatenated view of every replica's population, in
// index order (pooling order is part of the determinism contract). Dead
// replicas contribute their last-good generation.
func (l *replicaLoop) pool() ga.Population {
	l.pooled = l.pooled[:0]
	for _, eng := range l.engines {
		l.pooled = append(l.pooled, eng.Population()...)
	}
	return l.pooled
}

// finalize pools the replicas and assigns global ranks — the one pooled
// global competition, run once when the loop completes.
func (l *replicaLoop) finalize() {
	l.pool().AssignRanksAndCrowding()
	l.final = true
}

// snapshot returns every replica's checkpoint in index order and a copy of
// the liveness flags.
func (l *replicaLoop) snapshot() (inner []*search.Checkpoint, dead []bool) {
	inner = make([]*search.Checkpoint, len(l.engines))
	for i, eng := range l.engines {
		inner[i] = eng.Checkpoint()
	}
	return inner, append([]bool(nil), l.dead...)
}

// restore resumes the loop at epoch from snapshot's parts. nil dead (a
// snapshot from before fault tolerance) means every replica alive. Dropped
// causes are not persisted; a placeholder keeps the final report
// well-formed.
func (l *replicaLoop) restore(epoch int, inner []*search.Checkpoint, dead []bool) error {
	if len(inner) != len(l.engines) {
		return l.errorf("checkpoint has %d replicas, options configure %d", len(inner), len(l.engines))
	}
	l.epoch = epoch
	copy(l.dead, dead)
	for i, d := range l.dead {
		if d {
			l.dropped = append(l.dropped, i)
			l.errs = append(l.errs, errors.New("dropped before checkpoint"))
		}
	}
	if err := runIndexed(len(l.engines), l.workers, func(i int) error {
		return l.engines[i].Restore(l.probs[i], l.options(i), inner[i])
	}); err != nil {
		return l.errorf("%w", err)
	}
	l.tally()
	if l.done() {
		l.finalize()
	}
	return nil
}
