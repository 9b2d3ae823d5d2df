package ga

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/objective"
	"sacga/internal/rng"
)

func TestPoolRunCoversEveryIndexExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 2, 7, 64, 1000} {
		hits := make([]atomic.Int32, n)
		p.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times, want 1", n, i, got)
			}
		}
	}
}

func TestPoolRunZeroAndNegative(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ran := false
	p.Run(0, func(int) { ran = true })
	p.Run(-3, func(int) { ran = true })
	if ran {
		t.Fatal("fn must not run for n <= 0")
	}
}

func TestPoolRunLimitRespectsCap(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var active, peak atomic.Int32
	p.RunLimit(64, 2, func(i int) {
		a := active.Add(1)
		for {
			old := peak.Load()
			if a <= old || peak.CompareAndSwap(old, a) {
				break
			}
		}
		runtime.Gosched()
		active.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Fatalf("RunLimit(.., 2, ..) reached concurrency %d", got)
	}
}

func TestPoolReuseAcrossManyJobs(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	for job := 0; job < 200; job++ {
		p.Run(17, func(i int) { total.Add(1) })
	}
	if total.Load() != 200*17 {
		t.Fatalf("pool lost work across reuse: %d", total.Load())
	}
}

func TestPoolNestedSubmissionCompletes(t *testing.T) {
	// A 1-worker pool with jobs submitting sub-jobs would deadlock if the
	// submitting goroutine did not participate in its own job.
	p := NewPool(1)
	defer p.Close()
	var inner atomic.Int64
	p.Run(4, func(i int) {
		p.Run(8, func(j int) { inner.Add(1) })
	})
	if inner.Load() != 32 {
		t.Fatalf("nested jobs incomplete: %d/32", inner.Load())
	}
}

func TestPoolRunAfterCloseStillCompletes(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	var n atomic.Int64
	p.Run(50, func(i int) { n.Add(1) })
	if n.Load() != 50 {
		t.Fatalf("post-Close job incomplete: %d/50", n.Load())
	}
}

func TestPoolConcurrentNestedStress(t *testing.T) {
	// Several goroutines submit interleaved jobs of varied size and cap to
	// one pool, and every third index submits a nested job. Jobs and their
	// offers are recycled across all of them, so a late offer joining the
	// wrong job shows up as an index run twice or a cap exceeded, and a
	// missing happens-before edge as a race on the plain hit counters.
	p := NewPool(3)
	defer p.Close()
	const submitters, rounds = 6, 150
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				n, limit := 1+(g*rounds+r)%37, r%5
				capped := limit
				if capped <= 0 || capped > p.Workers()+1 {
					capped = p.Workers() + 1
				}
				hits := make([]int, n)
				var active, peak atomic.Int32
				p.RunLimit(n, limit, func(i int) {
					a := active.Add(1)
					for {
						old := peak.Load()
						if a <= old || peak.CompareAndSwap(old, a) {
							break
						}
					}
					hits[i]++
					if i%3 == 0 {
						inner := make([]int, 1+i%7)
						p.RunLimit(len(inner), 0, func(k int) { inner[k]++ })
						for k, h := range inner {
							if h != 1 {
								t.Errorf("nested job: index %d ran %d times", k, h)
							}
						}
					}
					active.Add(-1)
				})
				for i, h := range hits {
					if h != 1 {
						t.Errorf("submitter %d round %d: index %d ran %d times", g, r, i, h)
					}
				}
				if got := peak.Load(); got > int32(capped) {
					t.Errorf("submitter %d round %d: concurrency %d over cap %d", g, r, got, capped)
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolLateOfferNeverJoinsSuccessor(t *testing.T) {
	// A 1-worker pool: wedge its worker in job B, submit job X (whose offer
	// waits in the channel while the caller runs X alone), then job Y on
	// the recycled job object. When the worker is released it dequeues X's
	// stale offer; joining Y through it would run Y's index 1 while index
	// 0 is still inside the caller.
	p := NewPool(1)
	defer p.Close()
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	wedged := make(chan struct{})
	go func() {
		p.RunLimit(2, 2, func(int) { started.Done(); <-release })
		close(wedged)
	}()
	started.Wait() // the worker and the goroutine are both inside job B

	p.RunLimit(1, 2, func(int) {}) // job X: its offer is left in the channel
	if len(p.jobs) != 1 {
		t.Fatalf("job X left %d offers queued, want 1", len(p.jobs))
	}
	var zeroDone atomic.Bool
	overlapped := false
	p.RunLimit(2, 2, func(i int) { // job Y, on X's recycled job object
		if i == 1 {
			overlapped = !zeroDone.Load()
			return
		}
		close(release)
		<-wedged
		for len(p.jobs) != 0 { // the worker has taken X's offer
			runtime.Gosched()
		}
		// A nested job whose two indices must run at once: the worker gets
		// to it only after it is done with X's offer.
		var both sync.WaitGroup
		both.Add(2)
		p.RunLimit(2, 2, func(int) { both.Done(); both.Wait() })
		zeroDone.Store(true)
	})
	if overlapped {
		t.Fatal("a late offer of a finished job joined its successor")
	}
}

func TestSharedPoolSingleton(t *testing.T) {
	if SharedPool() != SharedPool() {
		t.Fatal("SharedPool must return one process-wide instance")
	}
	if SharedPool().Workers() <= 0 {
		t.Fatal("shared pool has no workers")
	}
}

func TestEvaluateParallelWorkersExceedPopulation(t *testing.T) {
	// workers > len(p) must clamp, not spin up idle goroutines or panic.
	prob := benchfn.ZDT1(5)
	s := rng.New(41)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 10, lo, hi)
	ref := pop.Clone()
	evaluate(ref, prob, 1)
	evaluate(pop, prob, 1000)
	for i := range pop {
		for k := range pop[i].Objectives {
			if pop[i].Objectives[k] != ref[i].Objectives[k] {
				t.Fatal("clamped parallel evaluation diverged from sequential")
			}
		}
	}
}

func TestEvaluateParallelSmallPopulationStaysSequential(t *testing.T) {
	// The largest population the dispatch rule keeps on the caller (one
	// short of two minSubBatch-wide sub-batches) must take the sequential
	// path: with workers=4 a parallel dispatch would still evaluate, but the
	// contract is no dispatch at all, observable through a non-atomic
	// counter being race-free under -race and exact without atomics.
	seen := 0
	prob := countingProblem{Problem: benchfn.ZDT1(4), hits: &seen}
	s := rng.New(43)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 2*minSubBatch-1, lo, hi)
	evaluate(pop, prob, 4)
	if seen != len(pop) {
		t.Fatalf("sequential fallback evaluated %d of %d", seen, len(pop))
	}
}

func TestEvaluateParallelDefaultWorkerCount(t *testing.T) {
	// workers <= 0 selects NumCPU; results must match sequential either way.
	prob := benchfn.ZDT1(6)
	s := rng.New(47)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 32, lo, hi)
	ref := pop.Clone()
	evaluate(ref, prob, 1)
	evaluate(pop, prob, 0)
	for i := range pop {
		if pop[i].Objectives[0] != ref[i].Objectives[0] {
			t.Fatal("default-worker evaluation diverged")
		}
	}
}

func TestEvaluateWithExplicitPool(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	s := rng.New(53)
	lo, hi := cnt.Bounds()
	pop := NewRandomPopulation(s, 64, lo, hi)
	if err := pop.TryEvaluateWith(cnt, p, 3); err != nil {
		t.Fatal(err)
	}
	if cnt.Count() != 64 {
		t.Fatalf("explicit-pool evaluation lost individuals: %d", cnt.Count())
	}
}

// countingProblem counts Evaluate calls WITHOUT atomics: exact counts (and
// a clean -race run) prove the caller used the sequential path.
type countingProblem struct {
	objective.Problem
	hits *int
}

func (c countingProblem) Evaluate(x []float64) objective.Result {
	*c.hits++
	return c.Problem.Evaluate(x)
}
