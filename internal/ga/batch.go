package ga

import "sacga/internal/objective"

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
