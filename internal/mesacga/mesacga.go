// Package mesacga implements the Multi-phase Expanding-partitions SACGA
// (paper §4.5, fig. 7): a SACGA run in multiple phases, where at the end of
// each phase the number of partitions is reduced and their size increased,
// "growing" the individual local Pareto fronts until they merge into the
// global Pareto front in a final single-partition phase. This removes the
// need to hand-tune SACGA's partition count (the paper's fig. 6 sweep) at
// the cost of one schedule, and trades diversity against convergence
// through the per-phase span.
//
// The optimizer is the step-wise Engine implementing search.Engine
// (registered as "mesacga"); drive it with search.Run or search.NewDriver.
// Partition schedules are validated at Init — positive, non-increasing,
// ending at a single partition — instead of silently misbehaving.
package mesacga

import (
	"encoding/gob"
	"fmt"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/search"
)

func init() {
	search.Register("mesacga", func() search.Engine { return new(Engine) })
	search.RegisterExtension("mesacga", func() any { return new(Params) })
	gob.Register(&Snapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// DefaultSchedule is the paper's seven-phase expansion.
func DefaultSchedule() []int { return []int{20, 13, 8, 5, 3, 2, 1} }

// Params is the MESACGA extension struct carried by search.Options.Extra.
// The zero value selects the paper defaults (DefaultSchedule, derived
// per-phase span from Options.Generations).
type Params struct {
	// Schedule lists the partition count per phase; empty selects
	// DefaultSchedule. Must be positive, non-increasing and end at 1
	// (validated at Init).
	Schedule []int
	// PartitionObjective / PartitionLo / PartitionHi as in sacga.Params.
	PartitionObjective       int
	PartitionLo, PartitionHi float64
	// GentMax caps the initial pure-local phase (default 200).
	GentMax int
	// Span, when > 0, pins the per-phase iteration budget. When 0, the
	// remainder of Options.Generations after phase I is split evenly
	// across phases (min 1 each) — the budget-matched mode.
	Span int
	// N, Shape, Pressure as in sacga.Params.
	N        int
	Shape    *sacga.Shape
	Pressure float64
}

const (
	stagePhaseI = iota
	stagePhases
)

// Engine is the step-wise MESACGA driver implementing search.Engine: a
// SACGA engine stepped one iteration at a time, with the phase-I exit, the
// per-phase re-gridding and the end-of-phase front recording folded into
// the Steps that cross them.
type Engine struct {
	inner    *sacga.Engine
	params   Params
	budget   search.EvalBudget
	schedule []int

	stage      int // stagePhaseI or stagePhases
	phase      int // index into schedule
	t          int // iteration within the current stage/phase
	span       int // per-phase length, fixed at the phase-I exit
	gentUsed   int
	totalIters int // Options.Generations (span derivation)

	phaseFronts []ga.Population
}

// Snapshot is the engine-specific checkpoint payload: the inner SACGA
// engine's snapshot plus the phase machinery and the recorded per-phase
// fronts.
type Snapshot struct {
	Inner       *sacga.Snapshot
	Stage       int
	Phase       int
	T           int
	Span        int
	GentUsed    int
	PhaseFronts []ga.Population
}

// Name implements search.Engine.
func (e *Engine) Name() string { return "mesacga" }

// innerOptions builds the inner SACGA engine's options: this engine's
// normalized options gridded at the first phase's partition count, with no
// evaluation cap — the cap stays with this engine's own budget.
func (e *Engine) innerOptions(opts search.Options) search.Options {
	p := &e.params
	opts.MaxEvals = 0
	opts.Extra = &sacga.Params{
		Partitions:         e.schedule[0],
		PartitionObjective: p.PartitionObjective,
		PartitionLo:        p.PartitionLo,
		PartitionHi:        p.PartitionHi,
		GentMax:            p.GentMax,
		Span:               p.Span,
		N:                  p.N,
		Shape:              p.Shape,
		Pressure:           p.Pressure,
	}
	return opts
}

// prepare validates and stores the option/extension wiring shared by Init
// and Restore, returning the budget-wrapped problem.
func (e *Engine) prepare(prob objective.Problem, opts *search.Options) (objective.Problem, error) {
	p, err := search.Extension[Params](*opts)
	if err != nil {
		return nil, fmt.Errorf("mesacga: %w", err)
	}
	e.params = *p
	if len(e.params.Schedule) == 0 {
		e.params.Schedule = DefaultSchedule()
	}
	if err := search.ValidateSchedule(e.params.Schedule); err != nil {
		return nil, fmt.Errorf("mesacga: %w", err)
	}
	opts.Normalize()
	e.schedule = e.params.Schedule
	e.totalIters = opts.Generations
	e.phaseFronts = nil
	return e.budget.Attach(prob, opts.MaxEvals), nil
}

// Init implements search.Engine.
func (e *Engine) Init(prob objective.Problem, opts search.Options) error {
	wrapped, err := e.prepare(prob, &opts)
	if err != nil {
		return err
	}
	e.inner = new(sacga.Engine)
	innerErr := e.inner.Init(wrapped, e.innerOptions(opts))
	e.stage, e.phase, e.t, e.span, e.gentUsed = stagePhaseI, 0, 0, 0, 0
	if innerErr != nil {
		return fmt.Errorf("mesacga: %w", innerErr)
	}
	return nil
}

// Step implements search.Engine: one iteration of the current phase. The
// phase-I exit performs MarkDead and fixes the per-phase span; completing
// phase p records its front (deep copy) and re-grids for phase p+1.
func (e *Engine) Step() error {
	if e.Done() {
		return nil
	}
	gentMax := e.inner.Params().GentMax
	phaseICap := sacga.BoundedGentMax(gentMax, e.totalIters, e.params.Span <= 0)
	if e.stage == stagePhaseI {
		if e.t < phaseICap && !e.inner.FeasibleEverywhere() {
			err := e.inner.StepLocal(e.t, gentMax)
			e.t++
			return err
		}
		e.gentUsed = e.t
		e.inner.MarkDead()
		e.stage = stagePhases
		e.t = 0
		e.span = e.params.Span
		if e.params.Span <= 0 {
			e.span = (e.totalIters - e.gentUsed) / len(e.schedule)
			if e.span < 1 {
				e.span = 1
			}
		}
	}
	stepErr := e.inner.StepMixed(e.t, e.span)
	e.t++
	if e.t >= e.span {
		// Phase complete: record its global front, expand.
		e.phaseFronts = append(e.phaseFronts, e.inner.Front().Clone())
		e.phase++
		e.t = 0
		if e.phase < len(e.schedule) {
			// Expand partitions: re-grid, reassign, refresh liveness. Some
			// locally-superior-but-globally-inferior solutions lose their
			// protection here — the paper's intended pruning.
			e.inner.Regrid(e.schedule[e.phase])
		}
	}
	return stepErr
}

// Done implements search.Engine.
func (e *Engine) Done() bool {
	if e.budget.Exhausted() {
		return true
	}
	return e.stage == stagePhases && e.phase >= len(e.schedule)
}

// Generation implements search.Engine.
func (e *Engine) Generation() int { return e.inner.Generation() }

// Population implements search.Engine. The view is invalidated by Step.
func (e *Engine) Population() ga.Population { return e.inner.Population() }

// Evals implements search.Engine.
func (e *Engine) Evals() int64 { return e.budget.Evals() }

// PhaseFronts returns the per-phase global fronts recorded so far (deep
// copies, one per completed phase).
func (e *Engine) PhaseFronts() []ga.Population { return e.phaseFronts }

// GentUsed returns the length of the initial pure-local phase (valid once
// the run has crossed the phase-I boundary).
func (e *Engine) GentUsed() int { return e.gentUsed }

// Checkpoint implements search.Engine.
func (e *Engine) Checkpoint() *search.Checkpoint {
	fronts := make([]ga.Population, len(e.phaseFronts))
	for i, f := range e.phaseFronts {
		fronts[i] = f.Clone()
	}
	return &search.Checkpoint{
		Algo:  e.Name(),
		Gen:   e.Generation(),
		Evals: e.Evals(),
		State: &Snapshot{
			Inner:       e.inner.Snapshot(),
			Stage:       e.stage,
			Phase:       e.phase,
			T:           e.t,
			Span:        e.span,
			GentUsed:    e.gentUsed,
			PhaseFronts: fronts,
		},
	}
}

// Restore implements search.Engine.
func (e *Engine) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if cp.Algo != e.Name() {
		return fmt.Errorf("mesacga: checkpoint is for %q", cp.Algo)
	}
	sn, ok := cp.State.(*Snapshot)
	if !ok {
		return fmt.Errorf("mesacga: checkpoint state is %T, want *mesacga.Snapshot", cp.State)
	}
	wrapped, err := e.prepare(prob, &opts)
	if err != nil {
		return err
	}
	e.budget.RestoreEvals(cp.Evals)
	e.inner = new(sacga.Engine)
	innerCP := &search.Checkpoint{Algo: e.inner.Name(), State: sn.Inner}
	if err := e.inner.Restore(wrapped, e.innerOptions(opts), innerCP); err != nil {
		return fmt.Errorf("mesacga: %w", err)
	}
	e.stage = sn.Stage
	e.phase = sn.Phase
	e.t = sn.T
	e.span = sn.Span
	e.gentUsed = sn.GentUsed
	e.phaseFronts = make([]ga.Population, len(sn.PhaseFronts))
	for i, f := range sn.PhaseFronts {
		e.phaseFronts[i] = f.Clone()
	}
	return nil
}
