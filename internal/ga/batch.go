package ga

import "sacga/internal/objective"

// evaluateBatch runs the population through a BatchProblem's fast path:
// gene-vector views and result slots come from a recycled scratch arena,
// and each individual's cached objectives are copied into its own reused
// buffers — at steady state the whole call performs no heap allocations.
func (p Population) evaluateBatch(bp objective.BatchProblem) {
	n := len(p)
	if n == 0 {
		return
	}
	sc := getEvalScratch(n)
	defer putEvalScratch(sc)
	nobj, ncons := bp.NumObjectives(), bp.NumConstraints()
	for i, ind := range p {
		sc.xs[i] = ind.X
		sc.res[i].Prepare(nobj, ncons)
	}
	bp.EvaluateBatch(sc.xs[:n], sc.res[:n])
	for i, ind := range p {
		ind.Objectives = append(ind.Objectives[:0], sc.res[i].Objectives...)
		ind.Violation = sc.res[i].TotalViolation()
		sc.xs[i] = nil // do not retain gene vectors in the scratch pool
	}
}

// evalScratch is one batch evaluation's workspace: the gene-vector view
// slice handed to EvaluateBatch and the recycled result slots it fills.
type evalScratch struct {
	xs  [][]float64
	res []objective.Result
}

func (sc *evalScratch) ensure(n int) {
	if cap(sc.xs) < n {
		sc.xs = make([][]float64, n)
		res := make([]objective.Result, n)
		copy(res, sc.res) // keep warmed result buffers
		sc.res = res
	}
	sc.xs = sc.xs[:n]
	sc.res = sc.res[:n]
}

// evalPool recycles evaluation scratch across calls and pool workers.
var evalPool freeList[evalScratch]

func getEvalScratch(n int) *evalScratch {
	sc := evalPool.get()
	sc.ensure(n)
	return sc
}

func putEvalScratch(sc *evalScratch) { evalPool.put(sc) }
