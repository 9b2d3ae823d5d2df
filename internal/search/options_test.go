package search

import (
	"testing"

	"sacga/internal/objective"
)

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.Normalize()
	if o.PopSize != DefaultPopSize || o.Generations != DefaultGenerations {
		t.Fatalf("defaults: %+v", o)
	}
	// Idempotent and non-destructive on explicit values.
	o2 := Options{PopSize: 7, Generations: 3}
	o2.Normalize()
	o2.Normalize()
	if o2.PopSize != 7 || o2.Generations != 3 {
		t.Fatalf("explicit values clobbered: %+v", o2)
	}
}

func TestExtension(t *testing.T) {
	type params struct{ A int }
	// nil Extra yields the zero extension.
	p, err := Extension[params](Options{})
	if err != nil || p == nil || p.A != 0 {
		t.Fatalf("nil extra: %v %v", p, err)
	}
	// A matching pointer passes through.
	want := &params{A: 3}
	p, err = Extension[params](Options{Extra: want})
	if err != nil || p != want {
		t.Fatalf("matching extra: %v %v", p, err)
	}
	// Anything else is a clear error.
	if _, err = Extension[params](Options{Extra: 42}); err == nil {
		t.Fatal("mismatched extra must error")
	}
}

func TestValidateSchedule(t *testing.T) {
	valid := [][]int{{1}, {2, 1}, {20, 13, 8, 5, 3, 2, 1}, {4, 4, 1}}
	for _, s := range valid {
		if err := ValidateSchedule(s); err != nil {
			t.Fatalf("schedule %v rejected: %v", s, err)
		}
	}
	invalid := [][]int{nil, {}, {2}, {4, 2}, {2, 4, 1}, {4, 0, 1}, {-1, 1}}
	for _, s := range invalid {
		if err := ValidateSchedule(s); err == nil {
			t.Fatalf("schedule %v accepted", s)
		}
	}
}

// countProblem is a minimal problem for budget accounting tests.
type countProblem struct{}

func (countProblem) Name() string               { return "count" }
func (countProblem) NumVars() int               { return 1 }
func (countProblem) NumObjectives() int         { return 1 }
func (countProblem) NumConstraints() int        { return 0 }
func (countProblem) Bounds() (lo, hi []float64) { return []float64{0}, []float64{1} }
func (countProblem) Evaluate(x []float64) objective.Result {
	return objective.Result{Objectives: []float64{x[0]}}
}

func TestEvalBudget(t *testing.T) {
	var b EvalBudget
	wrapped := b.Attach(countProblem{}, 3)
	c, ok := wrapped.(*objective.Counter)
	if !ok {
		t.Fatalf("Attach must wrap a bare problem in a Counter, got %T", wrapped)
	}
	if b.Exhausted() {
		t.Fatal("fresh budget exhausted")
	}
	x := []float64{0.5}
	c.Evaluate(x)
	c.Evaluate(x)
	if b.Evals() != 2 || b.Exhausted() {
		t.Fatalf("evals %d exhausted %v after 2", b.Evals(), b.Exhausted())
	}
	c.Evaluate(x)
	if !b.Exhausted() {
		t.Fatal("budget of 3 not exhausted after 3 evals")
	}
}

func TestEvalBudgetReusesCounter(t *testing.T) {
	// A caller-supplied Counter is used directly (every eval counted once)
	// and the budget baselines at the attach-time count.
	c := objective.NewCounter(countProblem{})
	x := []float64{0.5}
	c.Evaluate(x) // pre-existing count
	var b EvalBudget
	wrapped := b.Attach(c, 0)
	if wrapped != objective.Problem(c) {
		t.Fatalf("Attach must reuse the caller's counter, got %T", wrapped)
	}
	c.Evaluate(x)
	if b.Evals() != 1 {
		t.Fatalf("budget evals %d, want 1 (baseline excludes prior count)", b.Evals())
	}
	if b.Exhausted() {
		t.Fatal("zero cap must never exhaust")
	}
	// Restoring a checkpointed count rebases the baseline.
	b.RestoreEvals(10)
	if b.Evals() != 10 {
		t.Fatalf("restored evals %d, want 10", b.Evals())
	}
}
