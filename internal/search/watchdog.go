package search

import (
	"fmt"
	"time"

	"sacga/internal/objective"
)

// Per-step watchdog: a hung evaluation (a simulator that never returns, a
// deadlocked external tool) must not stall a run or a scheduler epoch
// forever. GuardedStep bounds one engine Step by a deadline; on expiry it
// interrupts the problem (objective.Interrupt walks the wrapper chain to
// the first objective.Interruptible), which converts blocking evaluations
// into quarantine panics, letting the step complete and the goroutine
// join. Problems with no interruption hook cannot be reclaimed: the step
// goroutine is abandoned and the engine is poisoned — callers must never
// touch it again (its buffers are still owned by the runaway step).

// WatchdogError reports a step that exceeded its deadline.
type WatchdogError struct {
	// Timeout is the deadline the step exceeded.
	Timeout time.Duration
	// Abandoned is true when the step could not be reclaimed (the problem
	// is not interruptible, or the grace window after interruption passed):
	// the engine is poisoned and must not be used again. When false, the
	// step completed after interruption and the engine is valid — the
	// quarantined results are readable and Err carries the step's error.
	Abandoned bool
	// Err is the error of a step that completed after interruption.
	Err error
}

// Error implements error.
func (e *WatchdogError) Error() string {
	if e.Abandoned {
		return fmt.Sprintf("search: step exceeded %v and could not be reclaimed; engine abandoned", e.Timeout)
	}
	return fmt.Sprintf("search: step exceeded %v, reclaimed by interrupt: %v", e.Timeout, e.Err)
}

// Unwrap exposes the reclaimed step's error.
func (e *WatchdogError) Unwrap() error { return e.Err }

// GuardedStep runs eng.Step() under a watchdog deadline; timeout <= 0
// runs it on the calling goroutine with no deadline. On expiry the problem
// is interrupted and the step is given one more timeout's grace to
// unblock; the returned *WatchdogError's Abandoned field tells the caller
// whether the engine survived. At any timeout, a panic escaping Step
// (engine bug, non-pool evaluation path) is converted to an error, so one
// faulty engine degrades to a droppable error instead of killing the
// scheduler or worker process that stepped it.
func GuardedStep(eng Engine, prob objective.Problem, timeout time.Duration) error {
	if timeout <= 0 {
		return stepRecover(eng)
	}
	done := make(chan error, 1)
	go func() { done <- stepRecover(eng) }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
	}
	if objective.Interrupt(prob) {
		grace := time.NewTimer(timeout)
		defer grace.Stop()
		select {
		case err := <-done:
			return &WatchdogError{Timeout: timeout, Err: err}
		case <-grace.C:
		}
	}
	return &WatchdogError{Timeout: timeout, Abandoned: true}
}

// stepRecover converts a panic escaping Step into an error on whichever
// goroutine runs the step: the watchdog select never loses a crash, and
// an unwatched step never kills its caller.
func stepRecover(eng Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("search: step panicked: %v", r)
		}
	}()
	return eng.Step()
}
