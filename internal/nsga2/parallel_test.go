package nsga2

import (
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/process"
	"sacga/internal/search"
	"sacga/internal/sizing"
)

// frontHV scores a run's front with the staircase metric so divergence in
// ANY objective value shows up in one scalar.
func frontHV(front ga.Population) float64 {
	pts := make([]hypervolume.Point2, 0, len(front))
	for _, ind := range front {
		pts = append(pts, hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]})
	}
	return hypervolume.PaperMetricCovering(pts, 1, 10)
}

// TestParallelEvaluationBitIdentical asserts the engine's determinism
// contract: Workers > 1 (pooled evaluation) must reproduce the sequential
// run exactly — same decision vectors, same objectives, same metric.
func TestParallelEvaluationBitIdentical(t *testing.T) {
	opts := search.Options{PopSize: 40, Generations: 30, Seed: 11}
	seq := runOK(t, benchfn.ZDT1(8), opts)

	opts.Workers = 8
	par := runOK(t, benchfn.ZDT1(8), opts)

	if len(seq.Front) != len(par.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(seq.Front), len(par.Front))
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
	if frontHV(seq.Front) != frontHV(par.Front) {
		t.Fatal("hypervolume metric diverged between sequential and parallel runs")
	}
}

// TestBatchProblemEngineDeterminism asserts the determinism contract on a
// real BatchProblem: the sizing problem routes through the SoA sub-batch
// dispatch when pooled, and must still reproduce the sequential run
// bit-for-bit.
func TestBatchProblemEngineDeterminism(t *testing.T) {
	prob := sizing.New(process.Default018(), sizing.PaperSpec())
	opts := search.Options{PopSize: 26, Generations: 6, Seed: 17, Workers: 1}
	seq := runOK(t, prob, opts)

	opts.Workers = 5
	par := runOK(t, prob, opts)

	for i := range seq.Final {
		for d := range seq.Final[i].X {
			if seq.Final[i].X[d] != par.Final[i].X[d] {
				t.Fatalf("individual %d gene %d diverged on the batch path", i, d)
			}
		}
		if seq.Final[i].Violation != par.Final[i].Violation {
			t.Fatalf("individual %d violation diverged on the batch path", i)
		}
		for k := range seq.Final[i].Objectives {
			if seq.Final[i].Objectives[k] != par.Final[i].Objectives[k] {
				t.Fatalf("individual %d objective %d diverged on the batch path", i, k)
			}
		}
	}
}
