// Package probspec is the one definition of "a problem, named": the small
// value that identifies an optimization problem across every process
// boundary in this repository — CLI flags, the shard coordinator's worker
// spec string, and the job server's wire schema all reduce to a Spec, and
// all rebuild bit-identical objective functions from it. Factored out of
// cmd/sacga so the front ends cannot drift apart on how "integrator grade
// 7, 8 robustness samples" turns into an objective.Problem.
package probspec

import (
	"fmt"
	"strconv"
	"strings"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/process"
	"sacga/internal/sizing"
	"sacga/internal/yield"
)

// Spec identifies one problem instance. Every field is result-determining:
// Spec is fingerprinted as-is by the job server's dedup key.
type Spec struct {
	// Name is the problem name: "integrator" or a benchmark
	// (zdt1..zdt6, schaffer, fonseca, kursawe, constr, srn, tnk, bnh,
	// dtlz1, dtlz2).
	Name string `json:"name"`
	// Grade picks an integrator spec from the 20-step difficulty ladder
	// (1..20); 0 selects the paper's spec. Ignored for benchmarks.
	Grade int `json:"grade,omitempty"`
	// Robust is the integrator's Monte-Carlo robustness sample count
	// (0 disables the robustness constraint; at most MaxRobust). Ignored
	// for benchmarks.
	Robust int `json:"robust,omitempty"`
	// Seed seeds the robustness estimator's corner draws. A run's Options
	// seed and its problem seed are conventionally the same value.
	Seed int64 `json:"seed,omitempty"`
}

// MaxRobust is the largest Spec.Robust that Build accepts. The estimator
// draws every sample up front, about 600 B each, before any job guardrail
// runs, so an untrusted spec must not choose the count freely. The cap is
// 128 times the 8 samples the figures use.
const MaxRobust = 1024

// Build constructs the problem. circuit reports whether it is the analog
// sizing problem (front ends use it to pick projections and partition
// axes). The construction is deterministic: equal Specs yield problems
// whose evaluations are bit-identical — the property the shard workers and
// the job server's restart recovery both rest on.
func (s Spec) Build() (prob objective.Problem, circuit bool, err error) {
	if s.Robust < 0 || s.Robust > MaxRobust {
		return nil, false, fmt.Errorf("probspec: robust %d outside 0..%d", s.Robust, MaxRobust)
	}
	if s.Name == "integrator" {
		spec := sizing.PaperSpec()
		if s.Grade >= 1 && s.Grade <= 20 {
			spec = sizing.SpecLadder(20)[s.Grade-1]
		} else if s.Grade != 0 {
			return nil, false, fmt.Errorf("probspec: grade %d outside 1..20", s.Grade)
		}
		var opts []sizing.Option
		if s.Robust > 0 {
			opts = append(opts, sizing.WithRobustness(yield.NewEstimator(s.Seed, s.Robust)))
		}
		return sizing.New(process.Default018(), spec, opts...), true, nil
	}
	if p := benchfn.ByName(s.Name); p != nil {
		return p, false, nil
	}
	return nil, false, fmt.Errorf("probspec: unknown problem %q", s.Name)
}

// BuildValidated builds and shape-checks the problem (objective.Validate),
// the admission sequence every front end runs.
func (s Spec) BuildValidated() (prob objective.Problem, circuit bool, err error) {
	prob, circuit, err = s.Build()
	if err != nil {
		return nil, false, err
	}
	if err := objective.Validate(prob); err != nil {
		return nil, false, err
	}
	return prob, circuit, nil
}

// CircuitPoint projects a feasible individual of the circuit problem onto
// the reported (CL, Power) plane of sizing.ReportedPoint; an infeasible one
// has no point. Front ends pick it by Build's circuit flag. (It cannot sit
// in sizing beside ReportedPoint: package ga's own tests import sizing.)
func CircuitPoint(ind *ga.Individual) (hypervolume.Point2, bool) {
	if !ind.Feasible() {
		return hypervolume.Point2{}, false
	}
	cl, pw := sizing.ReportedPoint(ind.Objectives)
	return hypervolume.Point2{X: cl, Y: pw}, true
}

// CircuitHV is the paper's hypervolume of points on the reported plane, in
// its unit of 0.1 mW·pF (sizing.HVUnit). Lower is better; no point scores
// +Inf.
func CircuitHV(pts []hypervolume.Point2) float64 {
	return hypervolume.PaperMetricScaled(pts, sizing.HVUnit)
}

// Encode packs the spec into the compact "name|grade|robust|seed" string
// the shard coordinator ships to its workers. Decode inverts it.
func (s Spec) Encode() string {
	return fmt.Sprintf("%s|%d|%d|%d", s.Name, s.Grade, s.Robust, s.Seed)
}

// Decode parses an Encode-d spec string.
func Decode(spec string) (Spec, error) {
	parts := strings.Split(spec, "|")
	if len(parts) != 4 {
		return Spec{}, fmt.Errorf("probspec: malformed problem spec %q", spec)
	}
	grade, err := strconv.Atoi(parts[1])
	var robust int
	var seed int64
	if err == nil {
		robust, err = strconv.Atoi(parts[2])
	}
	if err == nil {
		seed, err = strconv.ParseInt(parts[3], 10, 64)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("probspec: malformed problem spec %q: %w", spec, err)
	}
	return Spec{Name: parts[0], Grade: grade, Robust: robust, Seed: seed}, nil
}
