package search

import (
	"fmt"

	"sacga/internal/ga"
	"sacga/internal/objective"
)

// Default values applied by Options.Normalize — the one place the shared
// defaults live; each extension struct's normalize adds only its
// algorithm-specific ones.
const (
	DefaultPopSize     = 100
	DefaultGenerations = 250
)

// Options holds the hyperparameters every engine understands. Algorithm-
// specific knobs (partition grids, annealing shapes, migration intervals)
// live in per-algorithm extension structs carried by Extra — see
// sacga.Params, mesacga.Params and sched.IslandsParams.
type Options struct {
	// PopSize is the population size (default 100). Engines with internal
	// structure interpret it as the total across that structure
	// (parallel-islands: all replicas pooled).
	PopSize int
	// Generations is the total iteration budget (default 250). For sacga
	// it bounds phase I + phase II together when the extension struct does
	// not pin the phase lengths; for mesacga it is the budget phase I and
	// the phases share unless the extension pins a per-phase span.
	Generations int
	// MaxEvals, when > 0, caps the number of objective evaluations. The
	// cap is enforced through an objective.Counter wrapped around the
	// problem, and every engine stops within one generation of reaching
	// it — the paper's comparisons are budget-matched, so a uniform stop
	// rule matters more than an exact one.
	MaxEvals int64
	// Seed drives all randomness of the run.
	Seed int64
	// Initial seeds the population (cloned; missing individuals are filled
	// with uniform random samples).
	Initial ga.Population
	// Workers parallelizes objective evaluation on the process-wide
	// ga.SharedPool: 0 selects NumCPU, 1 forces the sequential path.
	// Results are bit-identical either way.
	Workers int
	// Extra carries the per-algorithm extension struct (e.g.
	// *sacga.Params). nil selects that algorithm's defaults.
	Extra any
}

// Normalize applies the shared defaults in place. Engines call it from
// Init; it is idempotent.
func (o *Options) Normalize() {
	if o.PopSize <= 0 {
		o.PopSize = DefaultPopSize
	}
	if o.Generations <= 0 {
		o.Generations = DefaultGenerations
	}
}

// ExtraTypeError reports that Options.Extra held the wrong extension struct
// for the engine it was handed to — a *sacga.Params given to "nsga2", say.
// Engines surface it (wrapped with their name) from Init/Restore, so a
// misrouted configuration is a recoverable, errors.As-matchable error
// instead of a panic or a silent default.
type ExtraTypeError struct {
	// Got is the dynamic type of the value found in Options.Extra.
	Got string
	// Want is the pointer type the engine expects (empty when the engine
	// takes no extension struct at all and Extra must be nil).
	Want string
}

// Error implements error.
func (e *ExtraTypeError) Error() string {
	if e.Want == "" {
		return fmt.Sprintf("Options.Extra must be nil, got %s", e.Got)
	}
	return fmt.Sprintf("Options.Extra is %s, want %s", e.Got, e.Want)
}

// Extension extracts the algorithm extension struct of type P from
// opts.Extra: nil Extra yields a zero P (the algorithm's defaults), a *P is
// returned as-is, and anything else is an *ExtraTypeError.
func Extension[P any](opts Options) (*P, error) {
	if opts.Extra == nil {
		return new(P), nil
	}
	p, ok := opts.Extra.(*P)
	if !ok {
		return nil, &ExtraTypeError{
			Got:  fmt.Sprintf("%T", opts.Extra),
			Want: fmt.Sprintf("*%T", *new(P)),
		}
	}
	return p, nil
}

// ValidateSchedule checks a MESACGA-style partition schedule: it must be
// non-empty, every entry positive, the sequence non-increasing, and the
// final phase must reach a single partition (the phase that merges the
// local fronts into the global Pareto front). A violating schedule used to
// silently misbehave — partitions "expanding" mid-run, or a final front
// that never merged; now it is a clear error at Init.
func ValidateSchedule(schedule []int) error {
	if len(schedule) == 0 {
		return fmt.Errorf("search: empty partition schedule")
	}
	for i, m := range schedule {
		if m < 1 {
			return fmt.Errorf("search: partition schedule entry %d is %d, must be >= 1", i, m)
		}
		if i > 0 && m > schedule[i-1] {
			return fmt.Errorf("search: partition schedule must be non-increasing, entry %d grows %d -> %d",
				i, schedule[i-1], m)
		}
	}
	if last := schedule[len(schedule)-1]; last != 1 {
		return fmt.Errorf("search: partition schedule must end at 1 partition (the front-merging phase), ends at %d", last)
	}
	return nil
}

// EvalBudget is the uniform evaluation accounting every engine embeds: it
// wraps the problem in an objective.Counter (reusing the caller's counter
// when the problem already is one, so experiment harnesses see every
// evaluation exactly once) and answers "how many evaluations has this run
// consumed" and "is the cap reached".
type EvalBudget struct {
	counter *objective.Counter
	max     int64
	base    int64
}

// Attach wires the budget to prob and returns the problem the engine must
// evaluate against (prob itself when it already counts, a counting wrapper
// otherwise). The Counter pass-throughs preserve the batch and in-place
// fast paths, so wrapping never changes evaluation results.
func (b *EvalBudget) Attach(prob objective.Problem, max int64) objective.Problem {
	if c, ok := prob.(*objective.Counter); ok {
		b.counter = c
	} else {
		b.counter = objective.NewCounter(prob)
		prob = b.counter
	}
	b.max = max
	b.base = b.counter.Count()
	return prob
}

// Evals returns the evaluations consumed since Attach (plus any restored
// baseline).
func (b *EvalBudget) Evals() int64 { return b.counter.Count() - b.base }

// Exhausted reports whether the cap is reached. A zero cap never exhausts.
func (b *EvalBudget) Exhausted() bool { return b.max > 0 && b.Evals() >= b.max }

// RestoreEvals rebases the accounting so Evals() reports n, the count a
// checkpoint recorded — resuming continues the budget rather than granting
// a fresh one.
func (b *EvalBudget) RestoreEvals(n int64) { b.base = b.counter.Count() - n }
