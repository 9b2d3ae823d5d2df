package ga

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sacga/internal/objective"
)

// Fault-isolated evaluation. TryEvaluate / TryEvaluateWith are the
// Evaluate / EvaluateWith counterparts every engine routes through: a
// panicking or non-finite evaluation quarantines that individual with
// worst-case objectives (+Inf everywhere, infinite violation) and the call
// returns a typed *objective.EvalError, while every sibling's result is
// exactly what the plain path would have produced. Faults are keyed to
// individuals, never to scheduling, so a faulting run is bit-identical at
// any worker count; the no-fault fast path allocates nothing at steady
// state (the fault collector is recycled like the evaluation scratch).

// TryEvaluate is Population.Evaluate with fault isolation: it returns nil
// exactly when every individual evaluated cleanly, and a
// *objective.EvalError describing the quarantined individuals otherwise.
func (p Population) TryEvaluate(prob objective.Problem) error {
	fs := getFaultSet()
	p.tryEvaluate(prob, 0, fs)
	return finishFaults(fs)
}

// TryEvaluateWith is EvaluateWith with fault isolation: the same pool and
// worker semantics and the same dispatch rule (contiguous sub-batches, at
// most one per worker and none narrower than minSubBatch, so the lane
// engine sees wide batches; a population too small for two stays on the
// caller), the same bit-identical parallel/sequential/batch/scalar
// contract, plus quarantine instead of a crash when the problem panics or
// returns non-finite results.
func (p Population) TryEvaluateWith(prob objective.Problem, pool *Pool, workers int) error {
	nb := subBatches(len(p), workers)
	if nb == 1 {
		return p.TryEvaluate(prob)
	}
	fs := getFaultSet()
	p.dispatch(prob, pool, nb, fs)
	return finishFaults(fs)
}

// tryEvaluate is TryEvaluate's body on p, recording faults into fs. base
// is p's offset within the enclosing population, so fault indices stay
// population-global no matter how the population was sub-divided.
func (p Population) tryEvaluate(prob objective.Problem, base int, fs *faultSet) {
	if bp, ok := prob.(objective.BatchProblem); ok {
		p.tryEvaluateBatch(bp, base, fs)
		return
	}
	for i, ind := range p {
		ind.tryEval(prob, base+i, fs)
	}
}

// tryEval evaluates one individual through the recovered scalar path;
// index is its position in the enclosing population for fault reporting.
func (ind *Individual) tryEval(prob objective.Problem, index int, fs *faultSet) {
	if err := ind.evalRecover(prob); err != nil {
		ind.quarantine(prob.NumObjectives())
		fs.add(index, err)
		return
	}
	if !validResult(ind.Objectives, ind.Violation) {
		ind.quarantine(prob.NumObjectives())
		fs.add(index, objective.ErrNonFinite)
	}
}

// evalRecover is Individual.Eval with the panic converted to an error.
func (ind *Individual) evalRecover(prob objective.Problem) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicAsError(r)
		}
	}()
	ind.Eval(prob)
	return nil
}

// tryEvaluateBatch is evaluateBatch with fault isolation; base is as in
// tryEvaluate.
func (p Population) tryEvaluateBatch(bp objective.BatchProblem, base int, fs *faultSet) {
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
	if err := batchRecover(bp, sc.xs[:n], sc.res[:n]); err != nil {
		// The batch call aborted, so no row of res can be trusted.
		// Re-evaluate every row through the recovered scalar path: only the
		// rows that actually fail are quarantined, the siblings get exactly
		// the results the batch would have produced (the batch and scalar
		// paths are bit-identical by contract).
		for i := range sc.xs[:n] {
			sc.xs[i] = nil
		}
		for i, ind := range p {
			ind.tryEval(bp, base+i, fs)
		}
		return
	}
	for i, ind := range p {
		if objs, vio := sc.res[i].Objectives, sc.res[i].TotalViolation(); validResult(objs, vio) {
			ind.Objectives = append(ind.Objectives[:0], objs...)
			ind.Violation = vio
		} else {
			ind.quarantine(nobj)
			fs.add(base+i, objective.ErrNonFinite)
		}
		sc.xs[i] = nil // do not retain gene vectors in the scratch pool
	}
}

// batchRecover is EvaluateBatch with the panic converted to an error.
func batchRecover(bp objective.BatchProblem, xs [][]float64, res []objective.Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicAsError(r)
		}
	}()
	bp.EvaluateBatch(xs, res)
	return nil
}

// quarantine stamps the worst-case result: +Inf on every objective and an
// infinite violation, so the individual loses every constrained-domination
// comparison and is selected away without perturbing its siblings.
func (ind *Individual) quarantine(nobj int) {
	ind.Objectives = ind.Objectives[:0]
	for k := 0; k < nobj; k++ {
		ind.Objectives = append(ind.Objectives, math.Inf(1))
	}
	ind.Violation = math.Inf(1)
}

// validResult reports whether a result can be ordered by the selection
// kernels: no NaN anywhere, no -Inf objective (which would dominate every
// honest point). +Inf objectives are legitimately terrible and pass.
func validResult(objs []float64, vio float64) bool {
	if math.IsNaN(vio) {
		return false
	}
	for _, v := range objs {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return false
		}
	}
	return true
}

// panicAsError normalizes a recovered panic value.
func panicAsError(r any) error {
	switch v := r.(type) {
	case *PanicError:
		return v
	case error:
		return fmt.Errorf("objective panicked: %w", v)
	default:
		return fmt.Errorf("objective panicked: %v", v)
	}
}

// faultRec is one quarantined individual.
type faultRec struct {
	index int
	err   error
}

// faultSet collects quarantine records across pool workers.
type faultSet struct {
	mu     sync.Mutex
	faults []faultRec
}

func (fs *faultSet) add(index int, err error) {
	fs.mu.Lock()
	fs.faults = append(fs.faults, faultRec{index: index, err: err})
	fs.mu.Unlock()
}

// error folds the set into a deterministic *objective.EvalError (or nil):
// records are sorted by index so the reported first failure is the
// lowest-index one regardless of which worker recorded it first.
func (fs *faultSet) error() error {
	if len(fs.faults) == 0 {
		return nil
	}
	sort.Slice(fs.faults, func(a, b int) bool { return fs.faults[a].index < fs.faults[b].index })
	return &objective.EvalError{
		Index: fs.faults[0].index,
		Count: len(fs.faults),
		Err:   fs.faults[0].err,
	}
}

// faultSetPool recycles collectors so the no-fault fast path stays
// allocation-free at steady state (same shape as the eval scratch pool).
var faultSetPool freeList[faultSet]

func getFaultSet() *faultSet { return faultSetPool.get() }

func finishFaults(fs *faultSet) error {
	err := fs.error()
	for i := range fs.faults {
		fs.faults[i] = faultRec{} // do not retain error values
	}
	fs.faults = fs.faults[:0]
	faultSetPool.put(fs)
	return err
}
