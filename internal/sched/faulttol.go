package sched

import (
	"errors"
	"fmt"

	"sacga/internal/objective"
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
// errors — an evaluation fault or dropped replicas — which ride alongside
// a valid best-so-far result: a degraded run, distinct from an internal
// failure. cmd/sacga exits 4 on it and the job server ends the job
// degraded, both with the front.
func FaultErr(err error) bool {
	var ee *objective.EvalError
	var re *ReplicaError
	return errors.As(err, &ee) || errors.As(err, &re)
}

// StepRetries is how many extra attempts a failing replica or member step
// gets, at once, before the scheduler drops it at the epoch barrier. The
// shard coordinator's request ladder reads the same budget, so a sharded
// run drops a replica at the epoch its in-process twin does.
const StepRetries = 2
