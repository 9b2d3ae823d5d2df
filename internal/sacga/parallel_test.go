package sacga

import (
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
)

func zdtFrontHV(front ga.Population) float64 {
	pts := make([]hypervolume.Point2, 0, len(front))
	for _, ind := range front {
		pts = append(pts, hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]})
	}
	return hypervolume.PaperMetricCovering(pts, 1, 10)
}

// TestParallelEvaluationBitIdentical asserts SACGA's determinism contract:
// pooled evaluation (Workers > 1) must reproduce the sequential run exactly
// — the annealed competition consumes the same random streams either way.
func TestParallelEvaluationBitIdentical(t *testing.T) {
	opts := zdtOptions(40, 5)
	_, seq := runOK(t, benchfn.ZDT1(8), opts)

	opts.Workers = 8
	_, par := runOK(t, benchfn.ZDT1(8), opts)

	if len(seq.Final) != len(par.Final) {
		t.Fatalf("population sizes differ: %d vs %d", len(seq.Final), len(par.Final))
	}
	for i := range seq.Final {
		for d := range seq.Final[i].X {
			if seq.Final[i].X[d] != par.Final[i].X[d] {
				t.Fatalf("individual %d gene %d diverged", i, d)
			}
		}
		for k := range seq.Final[i].Objectives {
			if seq.Final[i].Objectives[k] != par.Final[i].Objectives[k] {
				t.Fatalf("individual %d objective %d diverged", i, k)
			}
		}
	}
	if zdtFrontHV(seq.Front) != zdtFrontHV(par.Front) {
		t.Fatal("hypervolume metric diverged between sequential and parallel runs")
	}
}

// TestKernelsSteadyStateZeroAlloc pins the zero-allocation property of the
// per-generation selection kernels: partition-local ranking and quota-based
// environmental selection must not allocate once the engine's scratch is
// warm.
func TestKernelsSteadyStateZeroAlloc(t *testing.T) {
	prob := benchfn.ZDT1(8)
	e := initOK(t, prob, zdtOptions(60, 6))
	// Warm every buffer with a few full iterations (children, union,
	// double-buffered populations, group-by, sorter adjacency).
	stepsOK(t, e, true, 3)
	stepsOK(t, e, false, 3)

	union := append(append(ga.Population{}, e.pop...), e.pop.Clone()...)
	e.assign(union)
	e.localRanks(union) // warm union-sized scratch

	avg := testing.AllocsPerRun(20, func() { e.localRanks(union) })
	if avg != 0 {
		t.Fatalf("localRanks allocates %.1f objects/run at steady state, want 0", avg)
	}

	avg = testing.AllocsPerRun(20, func() { e.environmentalSelect(union) })
	if avg != 0 {
		t.Fatalf("environmentalSelect allocates %.1f objects/run at steady state, want 0", avg)
	}
}
