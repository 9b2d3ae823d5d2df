package ga

import (
	"sync/atomic"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/objective"
	"sacga/internal/rng"
)

// batchCounter wraps a scalar problem with a BatchProblem implementation
// that tags which path ran, so dispatch tests can tell them apart.
type batchCounter struct {
	objective.Problem
	batchCalls  atomic.Int64
	scalarCalls atomic.Int64
}

func (b *batchCounter) Evaluate(x []float64) objective.Result {
	b.scalarCalls.Add(1)
	return b.Problem.Evaluate(x)
}

func (b *batchCounter) EvaluateBatch(xs [][]float64, out []objective.Result) {
	b.batchCalls.Add(1)
	for i, x := range xs {
		r := b.Problem.Evaluate(x)
		out[i].Prepare(len(r.Objectives), len(r.Violations))
		copy(out[i].Objectives, r.Objectives)
		copy(out[i].Violations, r.Violations)
	}
}

func batchTestPopulation(seed int64, n int, prob objective.Problem) Population {
	s := rng.New(seed)
	lo, hi := prob.Bounds()
	return NewRandomPopulation(s, n, lo, hi)
}

func TestEvaluateDispatchesBatchPath(t *testing.T) {
	bc := &batchCounter{Problem: benchfn.Constr()}
	pop := batchTestPopulation(3, 40, bc)
	evaluate(pop, bc, 1)
	if bc.batchCalls.Load() == 0 {
		t.Fatal("TryEvaluateWith ignored the BatchProblem fast path")
	}
	if bc.scalarCalls.Load() != 0 {
		t.Fatalf("batch dispatch still made %d scalar Evaluate calls", bc.scalarCalls.Load())
	}
}

func TestBatchPathMatchesScalarPath(t *testing.T) {
	prob := benchfn.Constr()
	bc := &batchCounter{Problem: prob}
	a := batchTestPopulation(5, 60, prob)
	b := a.Clone()
	evaluate(a, prob, 1) // scalar path (benchfn problems are not batchable)
	evaluate(b, bc, 1)   // batch path
	for i := range a {
		if a[i].Violation != b[i].Violation {
			t.Fatalf("individual %d: violation %v != %v", i, a[i].Violation, b[i].Violation)
		}
		for k := range a[i].Objectives {
			if a[i].Objectives[k] != b[i].Objectives[k] {
				t.Fatalf("individual %d objective %d differs", i, k)
			}
		}
	}
}

func TestBatchPathParallelMatchesSequential(t *testing.T) {
	bc := &batchCounter{Problem: benchfn.Constr()}
	seq := batchTestPopulation(7, 101, bc) // odd size: uneven sub-batches
	par := seq.Clone()
	evaluate(seq, bc, 1)
	evaluate(par, bc, 8)
	if bc.batchCalls.Load() < 2 {
		t.Fatal("parallel batch dispatch did not split into sub-batches")
	}
	for i := range seq {
		if seq[i].Violation != par[i].Violation {
			t.Fatalf("individual %d: parallel violation diverged", i)
		}
		for k := range seq[i].Objectives {
			if seq[i].Objectives[k] != par[i].Objectives[k] {
				t.Fatalf("individual %d objective %d: parallel diverged", i, k)
			}
		}
	}
}

func TestBatchEvaluateSteadyStateZeroAlloc(t *testing.T) {
	bc := &batchCounter{Problem: benchfn.ZDT1(6)}
	pop := batchTestPopulation(11, 32, bc)
	evaluate(pop, bc, 1) // warm scratch + per-individual buffers
	avg := testing.AllocsPerRun(10, func() { evaluate(pop, bc, 1) })
	// The wrapped benchfn problem allocates its own Result slices per call;
	// discount them by measuring the wrapped problem alone.
	inner := testing.AllocsPerRun(10, func() {
		for _, ind := range pop {
			bc.Problem.Evaluate(ind.X)
		}
	})
	if avg > inner {
		t.Fatalf("batch dispatch adds %.1f allocs/run on top of the problem's %.1f, want 0 extra",
			avg, inner)
	}
}

func TestBatchScratchDoesNotRetainGenes(t *testing.T) {
	bc := &batchCounter{Problem: benchfn.ZDT1(4)}
	pop := batchTestPopulation(13, 8, bc)
	evaluate(pop, bc, 1)
	sc := getEvalScratch(8)
	defer putEvalScratch(sc)
	for i := range sc.xs {
		if sc.xs[i] != nil {
			t.Fatal("pooled scratch retains gene-vector references")
		}
	}
}
