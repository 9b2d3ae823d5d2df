package sched

import (
	"errors"
	"fmt"
	"time"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// ReplicaError is the typed error the fault-tolerant schedulers
// (ParallelIslands, Portfolio) return when replicas were dropped during the
// run. Unless AllDead is set the ensemble still finished: the error rides
// alongside a valid, finalized Result — the multi-engine analogue of a
// quarantining generation.
type ReplicaError struct {
	// Scheduler is the registry name of the scheduler that dropped them.
	Scheduler string
	// Dropped holds the dropped replica indices, ascending.
	Dropped []int
	// Errs holds each dropped replica's final error, parallel to Dropped.
	Errs []error
	// AllDead reports that no replica survived; the Result carries the
	// pooled last-good populations.
	AllDead bool
}

func (e *ReplicaError) Error() string {
	outcome := "continued without them"
	if e.AllDead {
		outcome = "no replicas left"
	}
	return fmt.Sprintf("sched: %s: dropped replicas %v (%s): %v",
		e.Scheduler, e.Dropped, outcome, e.Errs[0])
}

// Unwrap exposes the first dropped replica's cause to errors.Is/As.
func (e *ReplicaError) Unwrap() error { return e.Errs[0] }

// replicaFailure is one replica's outcome for an epoch, written by index
// from the stepping goroutines and consumed at the barrier.
type replicaFailure struct {
	err      error
	poisoned bool
}

// replicaSet tracks which child engines a scheduler still trusts. A dead
// replica is no longer stepped but its last-good population remains in the
// pooled view; a poisoned replica (watchdog abandonment — a runaway step
// may still be writing its buffers) is excluded from everything.
type replicaSet struct {
	dead     []bool
	poisoned []bool
	dropped  []int
	errs     []error
	reported bool
}

// reset initializes the set with n live replicas.
func (r *replicaSet) reset(n int) {
	r.dead = make([]bool, n)
	r.poisoned = make([]bool, n)
	r.dropped = nil
	r.errs = nil
	r.reported = false
}

// drop retires replica i. Call at the epoch barrier in replica-index
// order, so Dropped is deterministic at any worker count.
func (r *replicaSet) drop(i int, err error, poisoned bool) {
	if r.dead[i] {
		return
	}
	r.dead[i] = true
	r.poisoned[i] = poisoned
	r.dropped = append(r.dropped, i)
	r.errs = append(r.errs, err)
}

// allDead reports whether no replica survives.
func (r *replicaSet) allDead() bool {
	for _, d := range r.dead {
		if !d {
			return false
		}
	}
	return len(r.dead) > 0
}

// takeErr builds the run's ReplicaError, once: later calls return nil so a
// finalized scheduler does not re-report on subsequent (no-op) Steps.
func (r *replicaSet) takeErr(scheduler string) error {
	if r.reported || len(r.dropped) == 0 {
		return nil
	}
	r.reported = true
	return &ReplicaError{
		Scheduler: scheduler,
		Dropped:   append([]int(nil), r.dropped...),
		Errs:      append([]error(nil), r.errs...),
		AllDead:   r.allDead(),
	}
}

// restore rebuilds the liveness state from a checkpoint. nil dead (a
// pre-fault-tolerance snapshot) means all replicas alive. Dropped causes are
// not persisted; a placeholder keeps the final report well-formed.
func (r *replicaSet) restore(n int, dead, poisoned []bool) {
	r.reset(n)
	if dead == nil {
		return
	}
	copy(r.dead, dead)
	copy(r.poisoned, poisoned)
	for i, d := range r.dead {
		if d {
			r.dropped = append(r.dropped, i)
			r.errs = append(r.errs, errors.New("dropped before checkpoint"))
		}
	}
}

// pool rebuilds dst as the concatenated view of every engine's population,
// in engine-index order (pooling order is part of the determinism
// contract). Poisoned engines are skipped — their buffers may still be
// written by a runaway step — while dead-but-valid ones contribute their
// last-good generation.
func (r *replicaSet) pool(dst ga.Population, engines []search.Engine) ga.Population {
	dst = dst[:0]
	for i, eng := range engines {
		if !r.poisoned[i] {
			dst = append(dst, eng.Population()...)
		}
	}
	return dst
}

// poisonedAlgo marks a poisoned replica's placeholder entry in a composite
// snapshot. gob rejects nil pointers inside slices, so the unusable state is
// stood in for by an empty checkpoint; Restore reads at most its Evals (the
// replica stays dropped).
const poisonedAlgo = "sched/poisoned"

// StepWithRetry advances one engine under the scheduler's shared fault
// policy: a failing Step is retried up to `retries` more times, sleeping
// backoff (doubling per attempt) between tries, each attempt guarded by the
// watchdog when timeout > 0 and by a panic recover when not. poisoned
// reports watchdog abandonment — the engine's buffers may still be written
// by the runaway step, so the caller must never touch the engine again.
// Retrying a quarantining engine is meaningful because engines complete
// their generation before reporting the fault: each attempt is a fresh
// generation that may evaluate cleanly.
//
// Exported because this per-step isolation contract is shared budget-wide:
// the in-process schedulers apply it to their replicas, and the job server
// (internal/serve) applies it to every tenant's turn — one misbehaving job
// degrades itself, never the ensemble or the serving process.
func StepWithRetry(eng search.Engine, prob objective.Problem, retries int, backoff, timeout time.Duration) (err error, poisoned bool) {
	for attempt := 0; ; attempt++ {
		err = tryStep(eng, prob, timeout)
		if err == nil {
			return nil, false
		}
		// A direct type assertion, not errors.As: only an abandonment of
		// THIS child's step poisons it. A nested fault-tolerant scheduler
		// may return an error wrapping an abandoned *search.WatchdogError
		// from a replica it already dropped — the child itself is valid.
		if we, ok := err.(*search.WatchdogError); ok && we.Abandoned {
			return err, true
		}
		if attempt >= retries {
			return err, false
		}
		if backoff > 0 {
			time.Sleep(backoff << attempt)
		}
	}
}

// tryStep is one guarded attempt. Without a watchdog the step still runs
// under a recover, so a child panic degrades to a droppable error instead
// of killing the whole ensemble.
func tryStep(eng search.Engine, prob objective.Problem, timeout time.Duration) (err error) {
	if timeout > 0 {
		return search.GuardedStep(eng, prob, timeout)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: replica step panicked: %v", r)
		}
	}()
	return eng.Step()
}
