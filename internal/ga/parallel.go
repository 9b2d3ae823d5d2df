package ga

import (
	"runtime"

	"sacga/internal/objective"
)

// minSubBatch is the fewest individuals a pooled evaluation hands one
// worker, measured on the costly case: the 8-sample robust integrator on a
// 2-vCPU Xeon. A lane-engine call there costs 60-80% as much for one
// design as for eight (BenchmarkCircuitEvaluateBatchRobustWidth), so two
// sub-batches on two workers ran 22% slower than one call on the caller at
// 8 designs, tied at 9 and ran 9-25% faster at 10 to 25. A cheap problem
// loses only its helper's wake-up to a split, under 1 µs per generation on
// zdt1, so the costly case sets the floor.
const minSubBatch = 5

// subBatches is TryEvaluateWith's dispatch rule: the number of contiguous
// sub-batches to cut n individuals into for a job of at most workers
// goroutines (workers <= 0 selects NumCPU). It is at most one per worker
// and keeps every sub-batch at least minSubBatch wide; 1 means the caller
// evaluates the whole population with no pool dispatch.
func subBatches(n, workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return max(1, min(workers, n/minSubBatch))
}

// dispatch evaluates p as nb contiguous sub-batches on pool (nil: the
// shared pool), recording faults into fs.
func (p Population) dispatch(prob objective.Problem, pool *Pool, nb int, fs *faultSet) {
	if pool == nil {
		pool = SharedPool()
	}
	t := evalTasks.get()
	*t = evalTask{pop: p, prob: prob, nb: nb, fs: fs}
	pool.run(nb, nb, t)
	*t = evalTask{} // retain no population or problem while idle
	evalTasks.put(t)
}

// evalTask is one pooled evaluation, passed to the pool as a recycled
// loop body: do(b) evaluates sub-batch b of nb.
type evalTask struct {
	pop  Population
	prob objective.Problem
	nb   int
	fs   *faultSet
}

var evalTasks freeList[evalTask]

func (t *evalTask) do(b int) {
	lo, hi := b*len(t.pop)/t.nb, (b+1)*len(t.pop)/t.nb
	t.pop[lo:hi].tryEvaluate(t.prob, lo, t.fs)
}
