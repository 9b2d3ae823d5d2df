package ga

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a persistent, chunk-stealing worker pool for data-parallel loops.
// Workers are spawned once and reused across jobs, so per-generation
// evaluation pays no goroutine start-up cost; indices are handed out in
// chunks through an atomic cursor, so dispatch never serializes on an
// unbuffered channel the way the old per-call evaluator did. Jobs are
// recycled too, so at steady state a submission allocates nothing.
//
// The submitting goroutine always participates in its own job, which makes
// nested submission safe: a job submitted from inside a worker (e.g. a
// replicate runner whose replicates evaluate populations on the same pool)
// completes even when every pool worker is busy.
//
// A Pool is safe for concurrent use by multiple goroutines.
type Pool struct {
	workers int
	jobs    chan jobOffer
	quit    chan struct{}
	once    sync.Once
	free    freeList[poolJob]
}

// jobOffer is a job offered to one pool worker, tagged with the job's
// generation at the time of the offer.
type jobOffer struct {
	j   *poolJob
	gen uint32
}

// loopBody is a parallel loop body: do(i) runs once for every index of a
// job. The evaluator passes a recycled struct here, which, unlike a closure
// over its arguments, costs no allocation per job.
type loopBody interface{ do(i int) }

// funcBody adapts Run's func to loopBody. A func value is pointer-shaped,
// so the conversion itself does not allocate.
type funcBody func(i int)

func (f funcBody) do(i int) { f(i) }

// A job's ref word holds its generation in the high 32 bits, a closed flag
// in bit 31 and the number of goroutines inside the job in the low bits.
const (
	refClosed = 1 << 31
	refCount  = refClosed - 1
)

// poolJob is one parallel loop: body.do(i) for every i in [0,n).
//
// A job object is recycled once its loop completes, but an offer of it can
// still sit in the jobs channel: the submitter may have run every chunk
// itself before a worker got to the offer. ref makes such a late offer
// harmless. A worker enters only by a compare-and-swap that requires the
// offer's generation and an open job, and the submitter closes the job and
// waits for every worker that entered to leave before recycling it. A late
// offer therefore finds the job closed or a later generation and is
// dropped without reading any other field.
type poolJob struct {
	ref   atomic.Uint64
	n     int64
	chunk int64
	next  atomic.Int64 // cursor: next unclaimed index
	body  loopBody
	done  chan struct{} // capacity 1, reused: the last worker out wakes the submitter

	// Panic isolation: a panicking body must not kill a pool worker (its
	// goroutine serves every job in the process), so each call is recovered
	// and the lowest-index panic is re-raised on the submitting goroutine
	// as a *PanicError once the job drains. Keeping the lowest index makes
	// the surfaced panic independent of chunk scheduling.
	failMu    sync.Mutex
	failIdx   int64 // lowest panicking index; -1 = none
	failVal   any
	failStack []byte
}

// PanicError is a panic from a Pool loop body, captured on a worker and
// re-raised on the goroutine that submitted the job. Recoverable layers
// (TryEvaluateWith) convert it into a typed error; bare Run/RunLimit
// callers see an ordinary panic on their own stack, with the worker's
// stack preserved.
type PanicError struct {
	// Index is the lowest loop index whose body panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the point of the panic.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("ga: panic in pool worker at index %d: %v", e.Index, e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// NewPool starts a pool with the given number of workers; workers <= 0
// selects NumCPU. Call Close to release the worker goroutines (the shared
// pool returned by SharedPool is never closed).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{
		workers: workers,
		jobs:    make(chan jobOffer, workers),
		quit:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// Workers returns the number of pool-owned worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// Close stops the worker goroutines once any in-flight jobs drain. Jobs
// submitted after Close still complete, executed by the submitting
// goroutine alone. Close is idempotent.
func (p *Pool) Close() { p.once.Do(func() { close(p.quit) }) }

func (p *Pool) worker() {
	for {
		select {
		case <-p.quit:
			return
		case o := <-p.jobs:
			if o.j.join(o.gen) {
				o.j.run()
				o.j.leave()
			}
		}
	}
}

// Run executes fn(i) for every i in [0,n) across the pool and the calling
// goroutine, returning when all n calls have completed. Calls are
// unordered; fn must be safe to call concurrently for distinct i.
func (p *Pool) Run(n int, fn func(i int)) { p.RunLimit(n, 0, fn) }

// RunLimit is Run with the job's concurrency capped at limit goroutines
// (including the caller); limit <= 0 means no extra cap beyond the pool
// size.
func (p *Pool) RunLimit(n, limit int, fn func(i int)) { p.run(n, limit, funcBody(fn)) }

// run is RunLimit over a loopBody.
func (p *Pool) run(n, limit int, body loopBody) {
	if n <= 0 {
		return
	}
	if limit <= 0 || limit > p.workers+1 {
		limit = p.workers + 1
	}
	j := p.free.get()
	if j.done == nil { // a new job
		j.done = make(chan struct{}, 1)
	}
	gen := j.start(int64(n), chunkFor(n, limit), body)
	// Offer the job to at most limit-1 workers (the caller is the limit-th)
	// and to no more workers than there are chunks. Offers are non-blocking:
	// if every worker is busy the caller simply runs the whole job itself,
	// which is what makes nested submission deadlock-free.
	helpers := int((j.n + j.chunk - 1) / j.chunk)
	if helpers > limit-1 {
		helpers = limit - 1
	}
offer:
	for w := 0; w < helpers; w++ {
		select {
		case p.jobs <- jobOffer{j, gen}:
		default:
			break offer // buffer full: the caller picks up the slack
		}
	}
	j.run()
	j.finish()
	failIdx, failVal, failStack := j.failIdx, j.failVal, j.failStack
	j.body, j.failVal, j.failStack = nil, nil, nil // retain nothing while idle
	p.free.put(j)
	if failIdx >= 0 {
		panic(&PanicError{Index: int(failIdx), Value: failVal, Stack: failStack})
	}
}

// start arms a new or recycled job for one loop, with the submitter as its
// only participant, and returns the generation its offers must carry.
func (j *poolJob) start(n, chunk int64, body loopBody) uint32 {
	gen := uint32(j.ref.Load()>>32) + 1
	j.n, j.chunk, j.body = n, chunk, body
	j.next.Store(0)
	j.failIdx = -1
	j.ref.Store(uint64(gen)<<32 | 1)
	return gen
}

// join enters the job on behalf of a worker holding an offer of generation
// gen. It fails, touching nothing else, once that generation has closed.
func (j *poolJob) join(gen uint32) bool {
	for {
		w := j.ref.Load()
		if uint32(w>>32) != gen || w&refClosed != 0 {
			return false
		}
		if j.ref.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// leave exits a joined job. The last goroutine out of a closed job wakes
// its submitter, and touches the job no more.
func (j *poolJob) leave() {
	if j.ref.Add(^uint64(0))&(refClosed|refCount) == refClosed {
		j.done <- struct{}{}
	}
}

// finish is the submitter's leave: it closes the job to further joins and
// waits until every worker that joined has left. The submitter's own run
// has exhausted the cursor, so by then all n calls have completed.
func (j *poolJob) finish() {
	if j.ref.Add(refClosed-1)&refCount != 0 {
		<-j.done
	}
}

// run claims and executes chunks until the cursor is exhausted.
func (j *poolJob) run() {
	for {
		start := j.next.Add(j.chunk) - j.chunk
		if start >= j.n {
			return
		}
		end := min(start+j.chunk, j.n)
		for i := start; i < end; i++ {
			j.call(int(i))
		}
	}
}

// call runs body.do(i) with panic isolation: a recovered panic is recorded
// (the lowest index wins) and the loop goes on to the next index, so one
// poisoned index never takes down a worker goroutine or starves the job's
// other indices. What body.do(i) had left undone is abandoned.
func (j *poolJob) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			j.recordPanic(i, r, debug.Stack())
		}
	}()
	j.body.do(i)
}

func (j *poolJob) recordPanic(i int, v any, stack []byte) {
	j.failMu.Lock()
	if j.failIdx < 0 || int64(i) < j.failIdx {
		j.failIdx, j.failVal, j.failStack = int64(i), v, stack
	}
	j.failMu.Unlock()
}

// chunkFor sizes chunks so each participant gets a few steals' worth of
// work: small enough to balance uneven item costs, large enough to keep
// cursor contention negligible.
func chunkFor(n, limit int) int64 {
	c := n / (limit * 4)
	if c < 1 {
		c = 1
	}
	return int64(c)
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// SharedPool returns the process-wide evaluation pool (NumCPU workers,
// created on first use, never closed). All optimizers share it by default,
// so a whole experiment sweep runs on one fixed set of goroutines no matter
// how many engines are alive.
func SharedPool() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}
