// Package objective defines the minimal vocabulary shared by every
// optimizer in this repository: a Problem to be minimized and the Result of
// evaluating one decision vector.
//
// Conventions:
//   - All objectives are MINIMIZED. Problems with natural maximization
//     objectives (e.g. the integrator's load capacitance) negate internally
//     and un-negate for reporting.
//   - Constraints are reported as violations: a slice of non-negative
//     numbers where 0 means "satisfied" and larger means "worse". Feasible
//     points have every violation equal to zero.
package objective

import (
	"fmt"
	"sync/atomic"
)

// Result holds the outcome of evaluating one decision vector.
type Result struct {
	// Objectives are the minimized objective values, length NumObjectives.
	Objectives []float64
	// Violations are non-negative normalized constraint violations, length
	// NumConstraints; zero entries are satisfied constraints.
	Violations []float64
}

// Feasible reports whether every constraint is satisfied.
func (r Result) Feasible() bool {
	for _, v := range r.Violations {
		if v > 0 {
			return false
		}
	}
	return true
}

// TotalViolation is the sum of all constraint violations. It is the scalar
// used by Deb's constrained-domination rule to compare infeasible points.
func (r Result) TotalViolation() float64 {
	t := 0.0
	for _, v := range r.Violations {
		t += v
	}
	return t
}

// Problem is a box-constrained multi-objective minimization problem.
type Problem interface {
	// Name identifies the problem in logs and CSV output.
	Name() string
	// NumVars is the dimension of the decision vector.
	NumVars() int
	// NumObjectives is the number of minimized objectives.
	NumObjectives() int
	// NumConstraints is the number of inequality constraints (0 for
	// unconstrained problems).
	NumConstraints() int
	// Bounds returns the per-variable lower and upper bounds, each of
	// length NumVars. Callers must not mutate the returned slices.
	Bounds() (lo, hi []float64)
	// Evaluate computes objectives and constraint violations for x.
	// Implementations must not retain or mutate x.
	Evaluate(x []float64) Result
}

// Counter wraps a Problem and counts evaluations. It is how experiments
// report computational cost (the paper's "+18% overhead" comparison counts
// wall time; we report both evaluations and time). The count is atomic so
// parallel population evaluation stays exact.
type Counter struct {
	Problem
	n atomic.Int64
}

// NewCounter wraps p.
func NewCounter(p Problem) *Counter { return &Counter{Problem: p} }

// Evaluate delegates to the wrapped problem and increments the counter.
func (c *Counter) Evaluate(x []float64) Result {
	c.n.Add(1)
	return c.Problem.Evaluate(x)
}

// EvaluateInto implements IntoProblem pass-through: the wrapped problem's
// in-place path is preserved (or emulated by a copying Evaluate when it has
// none) and the counter advances by one either way.
func (c *Counter) EvaluateInto(x []float64, out *Result) {
	c.n.Add(1)
	if ip, ok := c.Problem.(IntoProblem); ok {
		ip.EvaluateInto(x, out)
		return
	}
	*out = c.Problem.Evaluate(x)
}

// EvaluateBatch implements BatchProblem pass-through: the wrapped problem's
// fast path is preserved (or emulated row-by-row when it has none) and the
// counter advances by exactly the batch size in one atomic add, so
// evaluation-count figures stay correct — each individual counted once — no
// matter which path the engine picks.
func (c *Counter) EvaluateBatch(xs [][]float64, out []Result) {
	c.n.Add(int64(len(xs)))
	if bp, ok := c.Problem.(BatchProblem); ok {
		bp.EvaluateBatch(xs, out)
		return
	}
	for i, x := range xs {
		out[i] = c.Problem.Evaluate(x)
	}
}

// Count returns the number of Evaluate calls so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Validate sanity-checks a problem definition: bounds lengths, ordering and
// a probe evaluation at the box centre. It returns a descriptive error for
// malformed problems and is used by the CLIs before long runs.
func Validate(p Problem) error {
	lo, hi := p.Bounds()
	if len(lo) != p.NumVars() || len(hi) != p.NumVars() {
		return fmt.Errorf("objective: %s bounds length %d/%d != NumVars %d",
			p.Name(), len(lo), len(hi), p.NumVars())
	}
	for i := range lo {
		if !(lo[i] < hi[i]) {
			return fmt.Errorf("objective: %s bound %d inverted: [%g,%g]",
				p.Name(), i, lo[i], hi[i])
		}
	}
	x := make([]float64, p.NumVars())
	for i := range x {
		x[i] = 0.5 * (lo[i] + hi[i])
	}
	r := p.Evaluate(x)
	if len(r.Objectives) != p.NumObjectives() {
		return fmt.Errorf("objective: %s returned %d objectives, want %d",
			p.Name(), len(r.Objectives), p.NumObjectives())
	}
	if len(r.Violations) != p.NumConstraints() {
		return fmt.Errorf("objective: %s returned %d violations, want %d",
			p.Name(), len(r.Violations), p.NumConstraints())
	}
	for i, v := range r.Violations {
		if v < 0 {
			return fmt.Errorf("objective: %s violation %d negative: %g", p.Name(), i, v)
		}
	}
	return nil
}
