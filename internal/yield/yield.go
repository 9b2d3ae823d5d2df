// Package yield estimates the robustness (parametric yield) of an
// integrator design: the fraction of manufacturing outcomes that still meet
// the specification. This realizes the paper's "Yield Calculation
// (Robustness)" constraint (their reference [6], HOLMES) as a stratified
// Monte-Carlo over global process variation.
//
// Two deliberate choices keep the estimator optimizer-friendly:
//
//   - Latin-hypercube sampling reduces estimator variance at small sample
//     counts, and
//   - a fixed sample table (common random numbers) is shared by every
//     design evaluated by one estimator, so the yield landscape seen by the
//     GA is deterministic and smooth rather than re-randomized per call.
//
// The same table feeds both evaluation paths: the scalar estimator below
// (RobustnessWithDesign, the reference) and the sizing layer's lane-major
// batch path, which reads it through Sample to evaluate a whole population
// sample by sample.
package yield

import (
	"sacga/internal/opamp"
	"sacga/internal/process"
	"sacga/internal/rng"
	"sacga/internal/scint"
)

// Dims is the dimensionality of the variation space: NMOS VT, NMOS KP,
// PMOS VT, PMOS KP, capacitor density (global process shifts, consumed by
// process.Tech.Perturb), plus two local-mismatch coordinates (consumed by
// the caller's design-perturbation hook — the sizing layer maps them onto
// Pelgrom-scaled mirror-ratio and tail-current errors).
const Dims = 7

// Estimator holds a frozen stratified sample table.
type Estimator struct {
	z [][]float64
}

// NewEstimator builds an estimator with n stratified gaussian samples drawn
// deterministically from seed.
func NewEstimator(seed int64, n int) *Estimator {
	s := rng.Derive(seed, "yield")
	return &Estimator{z: s.LatinHypercubeGauss(n, Dims)}
}

// Samples returns the number of Monte-Carlo points per estimate.
func (e *Estimator) Samples() int { return len(e.z) }

// Sample returns a copy of stored point k's z-vector (0 <= k < Samples()),
// the same vector RobustnessWithDesign hands to Tech.Perturb and the
// design-perturbation hook.
func (e *Estimator) Sample(k int) [Dims]float64 { return [Dims]float64(e.z[k]) }

// Robustness evaluates the design at every stored process perturbation of
// the base (typical) technology and returns the fraction that satisfies
// pass. The base technology itself is not included: a design that fails
// nominally simply scores near zero here and fails its nominal constraints
// anyway.
func (e *Estimator) Robustness(base *process.Tech, d scint.Design, sys scint.System, pass func(*scint.Perf) bool) float64 {
	return e.RobustnessWithDesign(base, d, sys, nil, pass)
}

// RobustnessWithDesign additionally applies a per-sample design
// perturbation: perturb receives the nominal design and the full z-vector
// (local-mismatch coordinates are z[5:]) and returns the design instance
// this manufacturing outcome would realize. nil perturb means global
// variation only.
func (e *Estimator) RobustnessWithDesign(base *process.Tech, d scint.Design, sys scint.System,
	perturb func(scint.Design, []float64) scint.Design, pass func(*scint.Perf) bool) float64 {
	if len(e.z) == 0 {
		return 1
	}
	ok := 0
	var ws opamp.WarmState
	for _, z := range e.z {
		t := base.Perturb(z)
		di := d
		if perturb != nil {
			di = perturb(d, z)
		}
		perf := scint.EvaluateWarm(&t, di, sys, &ws)
		if pass(&perf) {
			ok++
		}
	}
	return float64(ok) / float64(len(e.z))
}
