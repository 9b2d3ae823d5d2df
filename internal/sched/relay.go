package sched

import (
	"encoding/gob"
	"errors"
	"fmt"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/search"
)

func init() {
	search.Register(NameRelay, func() search.Engine { return new(Relay) })
	search.RegisterExtension(NameRelay, func() any { return new(RelayParams) })
	gob.Register(&RelaySnapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// Leg is one stage of a relay: which engine runs, with which extension
// struct, for how many generations.
type Leg struct {
	// Algo is the engine's registry name.
	Algo string
	// Extra is the extension struct for this leg's engine; nil selects the
	// algorithm's defaults.
	Extra any
	// Generations pins this leg's length; legs left at 0 split the
	// remainder of Options.Generations evenly (min 1 each), which keeps a
	// relay budget-comparable with a single engine run at the same total.
	Generations int
}

// RelayParams is the Relay extension struct carried by
// search.Options.Extra. A relay must declare at least one leg.
type RelayParams struct {
	Legs []Leg
}

// Relay chains engines under one evaluation budget: leg k+1 is seeded from
// leg k's final population (deep-copied into Options.Initial) with a
// per-leg derived RNG identity — the paper's phase I → phase II transition
// generalized to arbitrary engine pairs, e.g. an NSGA-II global
// exploration leg handing its population to a SACGA annealed-competition
// leg. One Step advances the active leg one generation; the handoff folds
// into the Step that crosses a leg boundary (its Init evaluates the
// inherited population, costing one population's worth of budget, exactly
// like a fresh run's Init).
//
// It implements search.Engine (registered as "relay"). Checkpoints carry
// the active leg's checkpoint, which holds everything the leg goes on
// from, so a resume mid-leg — or exactly mid-handoff — is bit-identical to
// an uninterrupted run.
type Relay struct {
	prob      objective.Problem
	opts      search.Options
	legs      []Leg
	gens      []int
	leg       int
	doneGens  int   // generations consumed by completed legs
	doneEvals int64 // evaluations consumed by completed legs
	inner     search.Engine
}

// RelaySnapshot is the composite checkpoint payload: which leg is active
// and its checkpoint. Checkpoints written by earlier builds also carry
// the population the active leg inherited (fields PackedHandoff and
// Handoff); gob skips them, since only an Init reads a seed population.
type RelaySnapshot struct {
	Leg      int
	DoneGens int
	Inner    *search.Checkpoint
}

// Name implements search.Engine.
func (e *Relay) Name() string { return NameRelay }

// resolveGens fixes every leg's generation count: pinned lengths are kept,
// and legs left at 0 split the remaining total evenly, at least 1 each.
func resolveGens(legs []Leg, total int) []int {
	gens := make([]int, len(legs))
	fixed, open := 0, 0
	for i, l := range legs {
		if l.Generations > 0 {
			gens[i] = l.Generations
			fixed += l.Generations
		} else {
			open++
		}
	}
	if open > 0 {
		share := (total - fixed) / open
		if share < 1 {
			share = 1
		}
		for i := range gens {
			if gens[i] == 0 {
				gens[i] = share
			}
		}
	}
	return gens
}

// prepare applies the option/problem wiring shared by Init and Restore.
func (e *Relay) prepare(prob objective.Problem, opts search.Options) error {
	p, err := search.Extension[RelayParams](opts)
	if err != nil {
		return fmt.Errorf("sched: relay: %w", err)
	}
	if len(p.Legs) == 0 {
		return fmt.Errorf("sched: relay: RelayParams must declare at least one leg")
	}
	opts.Normalize()
	e.prob, e.opts = prob, opts
	e.legs = p.Legs
	e.gens = resolveGens(p.Legs, opts.Generations)
	e.leg, e.doneGens, e.doneEvals = 0, 0, 0
	return nil
}

// legOptions builds leg k's options: the full population, the leg's
// resolved generation budget, a per-leg derived seed and, as the initial
// seed, the population the leg inherits (Options.Initial for leg 0).
func (e *Relay) legOptions(leg int, handoff ga.Population) search.Options {
	initial := handoff
	if leg == 0 {
		initial = e.opts.Initial
	}
	return childOptions(e.opts, e.opts.PopSize, e.gens[leg], "sched/relay", leg, e.legs[leg].Extra, initial)
}

// startLeg builds and initializes leg k around the population it inherits
// (nil for leg 0) and makes it the active leg, with the previous leg's
// generations and evaluations committed — atomically with respect to
// failure:
//
//   - A quarantining Init (the error chain carries *objective.EvalError)
//     completed its initial population — quarantined individuals carry
//     worst-case objectives, the engine is whole — so the leg IS adopted
//     and the error surfaces afterward: a retried Step continues the new
//     leg, and a caller of Init still has a population to report.
//   - Any other Init failure commits NOTHING: a retried Step replays the
//     whole handoff from the previous leg's final state.
func (e *Relay) startLeg(leg int, handoff ga.Population) error {
	eng, err := search.New(e.legs[leg].Algo)
	if err != nil {
		return fmt.Errorf("sched: relay leg %d: %w", leg, err)
	}
	err = eng.Init(childProblem(e.prob), e.legOptions(leg, handoff))
	var ee *objective.EvalError
	if err == nil || errors.As(err, &ee) {
		if leg > 0 {
			e.doneGens += e.inner.Generation()
			e.doneEvals += e.inner.Evals()
		}
		e.leg, e.inner = leg, eng
	}
	if err != nil {
		return fmt.Errorf("sched: relay leg %d (%s): %w", leg, e.legs[leg].Algo, err)
	}
	return nil
}

// Init implements search.Engine: validate the legs and start the first.
func (e *Relay) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	// Validate every leg's registry name up front, so a typo in leg 3
	// fails at Init instead of mid-run at the handoff.
	for i, l := range e.legs {
		if _, err := search.New(l.Algo); err != nil {
			return fmt.Errorf("sched: relay leg %d: %w", i, err)
		}
	}
	return e.startLeg(0, nil)
}

// Step implements search.Engine: one generation of the active leg. A Step
// that finds the active leg finished first performs the handoff — clone
// the population and start the next leg around it — then runs the new
// leg's first generation.
func (e *Relay) Step() error {
	if e.Done() {
		return nil
	}
	if e.inner.Done() {
		if err := e.startLeg(e.leg+1, e.inner.Population().Clone()); err != nil {
			return err
		}
	}
	if err := e.inner.Step(); err != nil {
		return fmt.Errorf("sched: relay leg %d (%s): %w", e.leg, e.legs[e.leg].Algo, err)
	}
	return nil
}

// Done implements search.Engine: the last leg has finished, or the budget
// is exhausted (checked at the step boundary, deterministically).
func (e *Relay) Done() bool {
	return (e.opts.MaxEvals > 0 && e.Evals() >= e.opts.MaxEvals) || (e.leg == len(e.legs)-1 && e.inner.Done())
}

// Generation implements search.Engine: generations across all legs.
func (e *Relay) Generation() int { return e.doneGens + e.inner.Generation() }

// Evals implements search.Engine: the completed legs' evaluations plus the
// active leg's own count.
func (e *Relay) Evals() int64 { return e.doneEvals + e.inner.Evals() }

// Population implements search.Engine: the active leg's population (the
// final leg leaves it globally ranked, as every engine's last step does).
func (e *Relay) Population() ga.Population { return e.inner.Population() }

// Leg returns the index of the active leg.
func (e *Relay) Leg() int { return e.leg }

// Checkpoint implements search.Engine.
func (e *Relay) Checkpoint() *search.Checkpoint {
	sn := &RelaySnapshot{Leg: e.leg, DoneGens: e.doneGens, Inner: e.inner.Checkpoint()}
	return &search.Checkpoint{Algo: e.Name(), Gen: e.Generation(), Evals: e.Evals(), State: sn}
}

// Restore implements search.Engine: rebuild the active leg from its own
// checkpoint, under the options it started with less the population it
// inherited, which no engine's Restore reads. The completed legs'
// evaluations are the checkpoint's count less the active leg's.
func (e *Relay) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	sn, err := search.StateOf[RelaySnapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("sched: %s: %w", e.Name(), err)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	if sn.Leg < 0 || sn.Leg >= len(e.legs) {
		return fmt.Errorf("sched: relay: checkpoint leg %d outside the %d configured legs", sn.Leg, len(e.legs))
	}
	if sn.Inner == nil || sn.Inner.Algo != e.legs[sn.Leg].Algo {
		return fmt.Errorf("sched: relay: checkpoint leg %d ran %q, options configure %q",
			sn.Leg, innerAlgo(sn.Inner), e.legs[sn.Leg].Algo)
	}
	eng, err := search.New(e.legs[sn.Leg].Algo)
	if err != nil {
		return fmt.Errorf("sched: relay leg %d: %w", sn.Leg, err)
	}
	if err := eng.Restore(childProblem(e.prob), e.legOptions(sn.Leg, nil), sn.Inner); err != nil {
		return fmt.Errorf("sched: relay leg %d (%s): %w", sn.Leg, e.legs[sn.Leg].Algo, err)
	}
	e.leg, e.doneGens, e.inner = sn.Leg, sn.DoneGens, eng
	e.doneEvals = cp.Evals - eng.Evals()
	return nil
}

func innerAlgo(cp *search.Checkpoint) string {
	if cp == nil {
		return "<nil>"
	}
	return cp.Algo
}
