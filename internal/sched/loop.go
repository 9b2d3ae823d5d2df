package sched

import (
	"errors"
	"fmt"
	"time"

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
// in the pooled view; a poisoned replica (watchdog abandonment — a runaway
// step may still be writing its buffers) is excluded from everything and
// keeps the count it had before its abandoned step.
type replicaLoop struct {
	name    string // the scheduler's engine name, for errors
	opts    search.Options
	workers int // replicas stepped at once; 0 = GOMAXPROCS
	retries int
	timeout time.Duration
	engines []search.Engine
	probs   []objective.Problem // per-replica counters over the problem (own accounting)
	options func(i int) search.Options
	counts  []int64 // each replica's Evals(), read at the last barrier
	evals   int64   // the sum of counts: the scheduler's budget
	epoch   int
	pooled  ga.Population
	final   bool

	dead, poisoned []bool
	dropped        []int
	errs           []error
	reported       bool
	fails          []replicaFailure // per-epoch scratch, index-addressed
}

// replicaFailure is one replica's outcome for an epoch, written by index
// from the stepping goroutines and consumed at the barrier.
type replicaFailure struct {
	err      error
	poisoned bool
}

// poisonedAlgo marks a poisoned replica's placeholder entry in a composite
// snapshot. gob rejects nil pointers inside slices, so the unusable state is
// stood in for by an empty checkpoint carrying only the replica's last
// evaluation count; Restore reads that count and keeps the replica dropped.
const poisonedAlgo = "sched/poisoned"

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
	l.counts = make([]int64, n)
	l.dead, l.poisoned = make([]bool, n), make([]bool, n)
	l.dropped, l.errs, l.reported = nil, nil, false
	l.fails = make([]replicaFailure, n)
	return nil
}

// init initializes every replica, concurrently when the worker bound
// allows, and tallies the budget — also after a quarantining Init, whose
// replicas are whole. A replica whose Init failed outright may hold no
// count to read (nothing attached, no leg started); it counts 0.
func (l *replicaLoop) init() error {
	err := runIndexed(len(l.engines), l.workers, func(i int) error {
		err := l.engines[i].Init(l.probs[i], l.options(i))
		var ee *objective.EvalError
		if err == nil || errors.As(err, &ee) {
			l.counts[i] = l.engines[i].Evals()
		}
		return err
	})
	for _, n := range l.counts {
		l.evals += n
	}
	return err
}

// step runs one epoch: every live replica advances up to gens(i)
// generations under StepWithRetry, concurrently up to the worker bound,
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
			if err, poisoned := StepWithRetry(eng, l.probs[i], l.retries, l.timeout); err != nil {
				l.fails[i] = replicaFailure{err: err, poisoned: poisoned}
				break
			}
		}
		return nil
	})
	for i, f := range l.fails {
		if f.err != nil {
			l.drop(i, f.err, f.poisoned)
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

// drop retires replica i. Called at the barrier in index order, so
// Dropped is deterministic at any worker count.
func (l *replicaLoop) drop(i int, err error, poisoned bool) {
	l.dead[i], l.poisoned[i] = true, poisoned
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
// sum is the scheduler's budget. A poisoned replica keeps the count it had
// before its abandoned step: its state belongs to the runaway step.
func (l *replicaLoop) tally() {
	l.evals = 0
	for i, eng := range l.engines {
		if !l.poisoned[i] {
			l.counts[i] = eng.Evals()
		}
		l.evals += l.counts[i]
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
// index order (pooling order is part of the determinism contract).
// Poisoned replicas are skipped; dead-but-valid ones contribute their
// last-good generation.
func (l *replicaLoop) pool() ga.Population {
	l.pooled = l.pooled[:0]
	for i, eng := range l.engines {
		if !l.poisoned[i] {
			l.pooled = append(l.pooled, eng.Population()...)
		}
	}
	return l.pooled
}

// finalize pools the replicas and assigns global ranks — the one pooled
// global competition, run once when the loop completes.
func (l *replicaLoop) finalize() {
	l.pool().AssignRanksAndCrowding()
	l.final = true
}

// snapshot returns every replica's checkpoint in index order — a
// placeholder holding only its last count for a poisoned replica — and
// copies of the liveness flags.
func (l *replicaLoop) snapshot() (inner []*search.Checkpoint, dead, poisoned []bool) {
	inner = make([]*search.Checkpoint, len(l.engines))
	for i, eng := range l.engines {
		if l.poisoned[i] {
			inner[i] = &search.Checkpoint{Algo: poisonedAlgo, Evals: l.counts[i]}
			continue
		}
		inner[i] = eng.Checkpoint()
	}
	return inner, append([]bool(nil), l.dead...), append([]bool(nil), l.poisoned...)
}

// restore resumes the loop at epoch from snapshot's parts. nil dead (a
// snapshot from before fault tolerance) means every replica alive. Dropped
// causes are not persisted; a placeholder keeps the final report
// well-formed.
func (l *replicaLoop) restore(epoch int, inner []*search.Checkpoint, dead, poisoned []bool) error {
	if len(inner) != len(l.engines) {
		return l.errorf("checkpoint has %d replicas, options configure %d", len(inner), len(l.engines))
	}
	l.epoch = epoch
	copy(l.dead, dead)
	copy(l.poisoned, poisoned)
	for i, d := range l.dead {
		if d {
			l.dropped = append(l.dropped, i)
			l.errs = append(l.errs, errors.New("dropped before checkpoint"))
		}
	}
	if err := runIndexed(len(l.engines), l.workers, func(i int) error {
		if l.poisoned[i] {
			l.counts[i] = inner[i].Evals // unrecoverable: stays dropped, keeps its count
			return nil
		}
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
