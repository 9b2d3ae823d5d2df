package sizing

import (
	"math"
	"testing"

	"sacga/internal/objective"
	"sacga/internal/process"
	"sacga/internal/simd"
)

// TestEvaluateBatchEnabledFlip runs the same population through
// EvaluateBatch twice in one process — once on the packed AVX2 kernels,
// once with simd.Enabled cleared so every kernel takes the scalar reference
// path — and demands bit-identical objectives and violations. This is the
// end-to-end form of the per-kernel equivalence tests: it proves the purego
// build (where Enabled is always false) computes exactly what the packed
// build computes, without needing a second binary. The robust case runs the
// near-feasible population through the Monte-Carlo lane sweep as well.
func TestEvaluateBatchEnabledFlip(t *testing.T) {
	if !simd.Enabled {
		t.Skip("packed kernels not enabled on this build/CPU; nothing to flip")
	}
	defer func() { simd.Enabled = true }()
	for _, tc := range []struct {
		name    string
		problem func() *Problem
		xs      [][]float64
	}{
		{"plain", func() *Problem { return New(process.Default018(), PaperSpec()) }, randomPopulation(77, 48)},
		{"robust", robustProblem, nearFeasiblePopulation(78, 45)},
	} {
		eval := func() []objective.Result {
			// A fresh problem per pass: warm state (bias seeds, corner roots)
			// must start cold both times for the runs to be comparable.
			p := tc.problem()
			out := make([]objective.Result, len(tc.xs))
			p.EvaluateBatch(tc.xs, out)
			return out
		}

		packed := eval()
		simd.Enabled = false
		scalar := eval()
		simd.Enabled = true

		for i := range packed {
			for k := range packed[i].Objectives {
				a, b := packed[i].Objectives[k], scalar[i].Objectives[k]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: individual %d objective %d: packed %v != scalar-ref %v", tc.name, i, k, a, b)
				}
			}
			for k := range packed[i].Violations {
				a, b := packed[i].Violations[k], scalar[i].Violations[k]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: individual %d violation %s: packed %v != scalar-ref %v", tc.name, i, ConsName(k), a, b)
				}
			}
		}
	}
}
