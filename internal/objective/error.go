package objective

import (
	"errors"
	"fmt"
)

// ErrNonFinite is the cause recorded when a problem returns a result the
// optimizers cannot order: a NaN objective or violation, or a -Inf
// objective ("infinitely good" would dominate every honest point). The
// individual is quarantined instead of poisoning the selection kernels.
var ErrNonFinite = errors.New("non-finite evaluation result")

// EvalError reports that one or more individuals of an evaluated population
// failed — the objective panicked, or produced a non-finite result. The
// failed individuals are quarantined with worst-case objectives (+Inf
// everywhere, infinite violation), so the population remains totally
// orderable and every sibling's result is untouched; the error tells the
// driver the run is degraded.
//
// Index, Count and Err are deterministic functions of which individuals
// failed — never of scheduling — so a faulting run stays bit-identical at
// any worker count.
type EvalError struct {
	// Index is the population index of the first (lowest-index) failed
	// individual.
	Index int
	// Count is the total number of quarantined individuals.
	Count int
	// Err is the underlying cause of the first failure.
	Err error
}

// Error implements error.
func (e *EvalError) Error() string {
	if e.Count > 1 {
		return fmt.Sprintf("objective: %d evaluations failed, first at index %d: %v", e.Count, e.Index, e.Err)
	}
	return fmt.Sprintf("objective: evaluation failed at index %d: %v", e.Index, e.Err)
}

// Unwrap exposes the first failure's cause to errors.Is/As.
func (e *EvalError) Unwrap() error { return e.Err }
