package sched

import (
	"errors"
	"fmt"
	"time"

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

// FaultErr reports whether err holds one of the typed fault-tolerance
// errors — an evaluation fault, a step the watchdog timed out, dropped
// replicas — which ride alongside a valid best-so-far result: a degraded
// run, distinct from an internal failure. cmd/sacga exits 4 on it and the
// job server ends the job degraded, both with the front.
func FaultErr(err error) bool {
	var ee *objective.EvalError
	var we *search.WatchdogError
	var re *ReplicaError
	return errors.As(err, &ee) || errors.As(err, &we) || errors.As(err, &re)
}

// StepRetries is how many extra attempts a failing replica or member step
// gets, at once, before the scheduler drops it at the epoch barrier. The
// shard coordinator's request ladder reads the same budget, so a sharded
// run drops a replica at the epoch its in-process twin does.
const StepRetries = 2

// StepWithRetry advances one engine under the scheduler's shared fault
// policy: a failing Step is retried at once, up to `retries` more times,
// each attempt under search.GuardedStep, which recovers a panic as an
// error and arms the watchdog when timeout > 0. poisoned reports watchdog
// abandonment — the engine's buffers may still be written by the runaway
// step, so the caller must never touch the engine again.
// Retrying a quarantining engine is meaningful because engines complete
// their generation before reporting the fault: each attempt is a fresh
// generation that may evaluate cleanly.
//
// Exported because this per-step isolation contract is shared budget-wide:
// the in-process schedulers apply it to their replicas, and the job server
// (internal/serve) applies it to every tenant's turn — one misbehaving job
// degrades itself, never the ensemble or the serving process.
func StepWithRetry(eng search.Engine, prob objective.Problem, retries int, timeout time.Duration) (err error, poisoned bool) {
	for attempt := 0; ; attempt++ {
		err = search.GuardedStep(eng, prob, timeout)
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
	}
}
