package search

import (
	"fmt"
	"time"
)

// Per-step watchdog: a wedged engine must not hold its caller forever.
// GuardedStep bounds one engine Step by a deadline; on expiry the step
// goroutine is abandoned and the engine with it — callers must never touch
// it again (its buffers are still owned by the runaway step).

// WatchdogError reports a step that exceeded its deadline. The engine was
// abandoned: its state belongs to the runaway step and must not be read.
type WatchdogError struct {
	// Timeout is the deadline the step exceeded.
	Timeout time.Duration
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("search: step exceeded %v; engine abandoned", e.Timeout)
}

// GuardedStep runs eng.Step() under a watchdog deadline; timeout <= 0
// runs it on the calling goroutine with no deadline. On expiry it returns
// a *WatchdogError at once and leaves the step running on its own
// goroutine. At any timeout, a panic escaping Step (engine bug, non-pool
// evaluation path) is converted to an error, so one faulty engine degrades
// to a droppable error instead of killing the scheduler or worker process
// that stepped it.
func GuardedStep(eng Engine, timeout time.Duration) error {
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
		return &WatchdogError{Timeout: timeout}
	}
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
