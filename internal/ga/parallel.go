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

// subBatches is the dispatch rule EvaluateWith and TryEvaluateWith share:
// the number of contiguous sub-batches to cut n individuals into for a job
// of at most workers goroutines (workers <= 0 selects NumCPU). It is at
// most one per worker and keeps every sub-batch at least minSubBatch
// wide; 1 means the caller evaluates the whole population with no pool
// dispatch.
func subBatches(n, workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return max(1, min(workers, n/minSubBatch))
}

// EvaluateParallel evaluates the population across the shared worker pool.
// The problem's Evaluate must be a pure function of its input (every
// problem in this repository is); results are written to each individual
// exactly as Evaluate would, so parallel and sequential evaluation are
// bit-identical and the GA's random streams are untouched.
//
// workers <= 0 selects NumCPU. Populations too small for two sub-batches
// of minSubBatch individuals are evaluated on the caller.
func (p Population) EvaluateParallel(prob objective.Problem, workers int) {
	p.EvaluateWith(prob, nil, workers)
}

// EvaluateWith is EvaluateParallel on an explicit pool; a nil pool selects
// the shared one. Engines that own a private Pool route every generation's
// evaluation through it, so one set of persistent workers serves the whole
// run instead of a goroutine flock per call.
//
// The population is cut into contiguous sub-batches, at most one per
// worker and none narrower than minSubBatch, and each participant
// evaluates whole sub-batches: a BatchProblem sees each one as a single
// EvaluateBatch call with its own recycled scratch. The lane engine
// amortizes its per-call work over the lanes of a call, so a population
// of 100 on two workers runs as two 50-lane calls, where a finer split
// for load balance would cost more per design than it saves. A population
// too small for two sub-batches never leaves the caller. Every sub-batch
// writes index-addressed slots, so the batch, scalar, parallel and
// sequential paths are all bit-identical.
//
// A panicking evaluation is re-raised on the caller. When the population
// was dispatched, it arrives as a *PanicError whose Index is the number of
// the sub-batch it came from, not the individual's index, and the rest of
// that sub-batch is left unevaluated. TryEvaluateWith isolates faults per
// individual instead.
func (p Population) EvaluateWith(prob objective.Problem, pool *Pool, workers int) {
	nb := subBatches(len(p), workers)
	if nb == 1 {
		p.Evaluate(prob)
		return
	}
	p.dispatch(prob, pool, nb, nil)
}

// dispatch evaluates p as nb contiguous sub-batches on pool (nil: the
// shared pool), each through the plain path or, with fs non-nil, the
// fault-isolated one.
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
	fs   *faultSet // nil: plain Evaluate path
}

var evalTasks freeList[evalTask]

func (t *evalTask) do(b int) {
	lo, hi := b*len(t.pop)/t.nb, (b+1)*len(t.pop)/t.nb
	if t.fs != nil {
		t.pop[lo:hi].tryEvaluate(t.prob, lo, t.fs)
		return
	}
	t.pop[lo:hi].Evaluate(t.prob)
}
