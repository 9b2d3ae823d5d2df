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
// It runs SACGA's own phase machine (sacga.NewPhased) over its schedule,
// so the phase-I cap, the span derivation and the phase transitions are
// SACGA's. Partition schedules are validated at Init — positive,
// non-increasing, ending at a single partition — instead of silently
// misbehaving.
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
}

// Engine is the step-wise MESACGA driver implementing search.Engine: a
// phased SACGA engine under MESACGA's name, params and checkpoint layout.
// It holds the SACGA engine rather than embedding it, so MESACGA is not a
// search.Migrator.
type Engine struct {
	inner *sacga.Engine
}

// Snapshot is the engine-specific checkpoint payload: the inner SACGA
// engine's snapshot, which carries the population state, plus the phase
// machine's position and the recorded per-phase fronts, packed.
// PhaseFronts carries the fronts in checkpoints written before the packed
// form, and is read only.
type Snapshot struct {
	Inner        *sacga.Snapshot
	Stage        int
	Phase        int
	T            int
	Span         int
	GentUsed     int
	PackedFronts []ga.Packed
	PhaseFronts  []ga.Population
}

// Name implements search.Engine.
func (e *Engine) Name() string { return "mesacga" }

// prepare validates the schedule and returns the options of a phased SACGA
// engine, which it installs as the inner engine.
func (e *Engine) prepare(opts search.Options) (search.Options, error) {
	p, err := search.Extension[Params](opts)
	if err != nil {
		return opts, fmt.Errorf("mesacga: %w", err)
	}
	schedule := p.Schedule
	if len(schedule) == 0 {
		schedule = DefaultSchedule()
	}
	if err := search.ValidateSchedule(schedule); err != nil {
		return opts, fmt.Errorf("mesacga: %w", err)
	}
	e.inner = sacga.NewPhased(schedule)
	opts.Extra = &sacga.Params{
		PartitionObjective: p.PartitionObjective,
		PartitionLo:        p.PartitionLo,
		PartitionHi:        p.PartitionHi,
		GentMax:            p.GentMax,
		Span:               p.Span,
	}
	return opts, nil
}

// Init implements search.Engine.
func (e *Engine) Init(prob objective.Problem, opts search.Options) error {
	opts, err := e.prepare(opts)
	if err != nil {
		return err
	}
	if err := e.inner.Init(prob, opts); err != nil {
		return fmt.Errorf("mesacga: %w", err)
	}
	return nil
}

// Step implements search.Engine: one iteration of the current phase.
func (e *Engine) Step() error { return e.inner.Step() }

// Done implements search.Engine.
func (e *Engine) Done() bool { return e.inner.Done() }

// Generation implements search.Engine.
func (e *Engine) Generation() int { return e.inner.Generation() }

// Population implements search.Engine. The view is invalidated by Step.
func (e *Engine) Population() ga.Population { return e.inner.Population() }

// Evals implements search.Engine.
func (e *Engine) Evals() int64 { return e.inner.Evals() }

// PhaseFronts returns the per-phase global fronts recorded so far (deep
// copies, one per completed phase).
func (e *Engine) PhaseFronts() []ga.Population { return e.inner.PhaseFronts() }

// GentUsed returns the length of the initial pure-local phase (valid once
// the run has crossed the phase-I boundary).
func (e *Engine) GentUsed() int { return e.inner.GentUsed() }

// Checkpoint implements search.Engine: the inner checkpoint, with the phase
// machine's position and fronts moved out of the inner snapshot into
// MESACGA's layout.
func (e *Engine) Checkpoint() *search.Checkpoint {
	cp := e.inner.Checkpoint()
	in := cp.State.(*sacga.Snapshot)
	cp.Algo = e.Name()
	cp.State = &Snapshot{Inner: in, Stage: in.Stage, Phase: in.Phase, T: in.T,
		Span: in.Span, GentUsed: in.GentUsed, PackedFronts: in.PackedFronts}
	in.Stage, in.Phase, in.T, in.Span, in.GentUsed, in.PackedFronts = 0, 0, 0, 0, 0, nil
	return cp
}

// Restore implements search.Engine: Checkpoint's translation inverted, on
// a copy of the inner snapshot.
func (e *Engine) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	sn, err := search.StateOf[Snapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("mesacga: %w", err)
	}
	opts, err = e.prepare(opts)
	if err != nil {
		return err
	}
	in := *sn.Inner
	in.Stage, in.Phase, in.T, in.Span, in.GentUsed = sn.Stage, sn.Phase, sn.T, sn.Span, sn.GentUsed
	in.PackedFronts, in.PhaseFronts = sn.PackedFronts, sn.PhaseFronts
	inner := &search.Checkpoint{Algo: e.inner.Name(), Gen: cp.Gen, Evals: cp.Evals, State: &in}
	if err := e.inner.Restore(prob, opts, inner); err != nil {
		return fmt.Errorf("mesacga: %w", err)
	}
	return nil
}
