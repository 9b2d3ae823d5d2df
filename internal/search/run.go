package search

import (
	"context"
	"errors"

	"sacga/internal/objective"
)

// Run drives a full optimization: Init, then Step until Done, invoking
// every observer after each generation. It returns when the engine
// completes, the context is cancelled or its deadline passes, or the
// Options.MaxEvals budget is exhausted.
//
// On cancellation Run returns the partial Result alongside ctx's error —
// the population is valid at every generation boundary, so a cancelled run
// still yields its best-so-far front. Cancellation is checked between
// generations; a Step in flight completes first.
//
// Evaluation faults do not crash the run: failed individuals are
// quarantined (see objective.EvalError) and the generation completes, so a
// faulting Step — like a cancelled run — returns the best-so-far Result
// alongside the typed error.
func Run(ctx context.Context, eng Engine, prob objective.Problem, opts Options, observers ...Observer) (*Result, error) {
	if err := eng.Init(prob, opts); err != nil {
		var ee *objective.EvalError
		if errors.As(err, &ee) {
			// Initialization completed with quarantined individuals: the
			// engine is valid, so surface its degraded population.
			return NewDriver(eng, observers...).Result(), err
		}
		return nil, err
	}
	return drive(ctx, eng, observers)
}

// Resume is Run for a checkpointed run: Restore instead of Init, then the
// same driven loop. prob and opts must match the ones the checkpointed run
// was started with — the snapshot carries the run state, not the problem.
func Resume(ctx context.Context, eng Engine, prob objective.Problem, opts Options, cp *Checkpoint, observers ...Observer) (*Result, error) {
	if err := eng.Restore(prob, opts, cp); err != nil {
		return nil, err
	}
	return drive(ctx, eng, observers)
}

func drive(ctx context.Context, eng Engine, observers []Observer) (*Result, error) {
	d := NewDriver(eng, observers...)
	for {
		more, err := d.Step(ctx)
		if err != nil {
			return d.Result(), err
		}
		if !more {
			return d.Result(), nil
		}
	}
}

// Driver is the step-wise form of Run for callers that interleave their own
// work between generations (hybrid schedules, REPLs, progress UIs): each
// Step call advances the engine one generation and fans the frame out to
// the observers. The zero value is not usable; construct with NewDriver
// around an engine that is already Init-ed or Restore-d.
type Driver struct {
	eng   Engine
	obs   []Observer
	frame Frame
}

// NewDriver wraps an initialized engine and its observers. The driver adds
// no per-generation allocations: the observer frame is reused across steps.
func NewDriver(eng Engine, observers ...Observer) *Driver {
	return &Driver{eng: eng, obs: observers, frame: Frame{Engine: eng}}
}

// Step checks the context, advances one generation and notifies the
// observers. It returns false when the engine is done (no generation was
// executed), and ctx.Err() when cancelled. A quarantining generation
// (objective.EvalError) completes — state and observers included — before
// the error is returned.
func (d *Driver) Step(ctx context.Context) (more bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if d.eng.Done() {
		return false, nil
	}
	err = d.eng.Step()
	d.notify()
	return err == nil, err
}

// notify fans the completed generation out to the observers.
func (d *Driver) notify() {
	d.frame.Gen = d.eng.Generation()
	d.frame.Pop = d.eng.Population()
	d.frame.Evals = d.eng.Evals()
	for _, o := range d.obs {
		o.Observe(&d.frame)
	}
}

// Result assembles the run outcome from the engine's current state. Valid
// at any generation boundary, which is what makes cancelled and faulted
// runs useful.
func (d *Driver) Result() *Result {
	pop := d.eng.Population()
	return &Result{
		Final:       pop,
		Front:       pop.FirstFront(),
		Generations: d.eng.Generation(),
		Evals:       d.eng.Evals(),
	}
}
