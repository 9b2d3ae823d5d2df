package ga

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sacga/internal/benchfn"
	"sacga/internal/objective"
	"sacga/internal/process"
	"sacga/internal/rng"
	"sacga/internal/sizing"
	"sacga/internal/yield"
)

// widthSpy is a BatchProblem that records the width of every EvaluateBatch
// call and the goroutine that made it.
type widthSpy struct {
	objective.Problem
	mu     sync.Mutex
	widths []int
	goids  []uint64
}

func (s *widthSpy) EvaluateBatch(xs [][]float64, out []objective.Result) {
	s.mu.Lock()
	s.widths = append(s.widths, len(xs))
	s.goids = append(s.goids, goid())
	s.mu.Unlock()
	for i, x := range xs {
		r := s.Problem.Evaluate(x)
		copy(out[i].Objectives, r.Objectives)
		copy(out[i].Violations, r.Violations)
	}
}

// goid returns the calling goroutine's id, parsed from the header line of
// its stack trace ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestDispatchShape(t *testing.T) {
	pool := NewPool(8)
	defer pool.Close()
	for _, tc := range []struct{ n, workers, calls int }{
		{100, 2, 2}, // one 50-design call per worker
		{101, 8, 8},
		{27, 8, 27 / minSubBatch}, // the floor, not the workers, caps the calls
		{2*minSubBatch - 1, 4, 1}, // too small for two: the caller alone
	} {
		spy := &widthSpy{Problem: benchfn.ZDT1(5)}
		pop := batchTestPopulation(int64(tc.n), tc.n, spy)
		if err := pop.TryEvaluateWith(spy, pool, tc.workers); err != nil {
			t.Fatal(err)
		}
		widths := slices.Sorted(slices.Values(spy.widths))
		sum := 0
		for _, w := range widths {
			sum += w
		}
		if sum != tc.n || len(widths) != tc.calls || widths[len(widths)-1]-widths[0] > 1 {
			t.Errorf("n=%d workers=%d: calls %v, want %d even calls covering %d designs",
				tc.n, tc.workers, widths, tc.calls, tc.n)
		}
		if tc.calls > 1 && widths[0] < minSubBatch {
			t.Errorf("n=%d workers=%d: calls %v, want none under %d", tc.n, tc.workers, widths, minSubBatch)
		}
		if tc.calls == 1 && spy.goids[0] != goid() {
			t.Errorf("n=%d workers=%d: call made on goroutine %d, want the caller (%d)",
				tc.n, tc.workers, spy.goids[0], goid())
		}
	}
}

func TestSubBatches(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{0, 4, 1}, {2*minSubBatch - 1, 4, 1}, {2 * minSubBatch, 4, 2}, {100, 2, 2},
		{100, 1, 1}, {101, 8, 8}, {27, 8, 5}, {256, 4, 4}, {10, 1000, 2},
	} {
		if got := subBatches(tc.n, tc.workers); got != tc.want {
			t.Errorf("subBatches(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// stallingProblem is zdt1 over a stallPop-design population that the
// pooled evaluator cuts into four sub-batches of ten, with behaviour keyed
// to design indices: design stallPanicAt (sub-batch 2) panics, design
// stallAt (the first of sub-batch 3) stalls for 50 ms, and each design of
// sub-batch 0 takes a millisecond. The caller, which claims sub-batch 0
// first, is therefore done and waiting for the job to drain while a pool
// worker is still stalled in sub-batch 3.
type stallingProblem struct {
	objective.Problem
	index           map[*float64]int // a design's first gene → its index
	caller          uint64           // the submitting goroutine
	stalledOnHelper atomic.Bool
}

const stallPop, stallPanicAt, stallAt = 40, 25, 30

func newStallingProblem(pop Population) *stallingProblem {
	s := &stallingProblem{Problem: benchfn.ZDT1(4), index: make(map[*float64]int, len(pop))}
	for i, ind := range pop {
		s.index[&ind.X[0]] = i
	}
	return s
}

func (s *stallingProblem) Evaluate(x []float64) objective.Result {
	switch i := s.index[&x[0]]; {
	case i == stallPanicAt:
		panic("injected fault")
	case i == stallAt:
		s.stalledOnHelper.Store(goid() != s.caller)
		time.Sleep(50 * time.Millisecond)
	case i < stallPop/4:
		time.Sleep(time.Millisecond)
	}
	return s.Problem.Evaluate(x)
}

// TestPooledEvaluationWaitsForStalledHelper runs the pooled evaluator on
// four sub-batches while one pool worker's sub-batch panics and another's
// stalls. The call must wait for the stalled worker and return exactly the
// sequential evaluation's quarantine, error and siblings.
func TestPooledEvaluationWaitsForStalledHelper(t *testing.T) {
	lo, hi := benchfn.ZDT1(4).Bounds()
	fresh := func() Population { return NewRandomPopulation(rng.New(9), stallPop, lo, hi) }
	ref := fresh()
	refErr := ref.TryEvaluateWith(newStallingProblem(ref), nil, 1)
	var refEE *objective.EvalError
	if !errors.As(refErr, &refEE) || refEE.Index != stallPanicAt || refEE.Count != 1 {
		t.Fatalf("sequential TryEvaluateWith: %v, want one fault at %d", refErr, stallPanicAt)
	}
	same := func(a, b *Individual) bool {
		return math.Float64bits(a.Violation) == math.Float64bits(b.Violation) &&
			slices.EqualFunc(a.Objectives, b.Objectives, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			})
	}

	pool := NewPool(4)
	defer pool.Close()
	if nb := subBatches(stallPop, 4); nb != 4 {
		t.Fatalf("subBatches(%d, 4) = %d, want 4", stallPop, nb)
	}
	// run evaluates a fresh population on its own goroutine, so a call that
	// never returns fails the test instead of hanging it.
	run := func() (Population, *stallingProblem, error, any) {
		pop := fresh()
		prob := newStallingProblem(pop)
		var err error
		var panicked any
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			defer func() { panicked = recover() }()
			prob.caller = goid()
			err = pop.TryEvaluateWith(prob, pool, 4)
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatal("pooled evaluation did not return with a stalled worker")
		}
		return pop, prob, err, panicked
	}

	// The caller usually claims sub-batch 0, so the stalling design almost
	// always runs on a pool worker; retry until it has.
	stalled := false
	for attempt := 0; attempt < 20 && !stalled; attempt++ {
		pop, prob, err, panicked := run()
		var ee *objective.EvalError
		if panicked != nil || !errors.As(err, &ee) || ee.Index != refEE.Index || ee.Count != refEE.Count ||
			ee.Err.Error() != refEE.Err.Error() {
			t.Fatalf("TryEvaluateWith: error %v, panic %v; want %v", err, panicked, refErr)
		}
		for i := range pop {
			if !same(pop[i], ref[i]) {
				t.Fatalf("TryEvaluateWith design %d: %v/%v, want %v/%v",
					i, pop[i].Objectives, pop[i].Violation, ref[i].Objectives, ref[i].Violation)
			}
		}
		stalled = prob.stalledOnHelper.Load()
	}
	if !stalled {
		t.Fatal("the stalling design never ran on a pool worker")
	}
}

// onMonteCarloGate reports whether an integrator design's worst-corner
// DR, OR, ST, SE, saturation-region and phase-margin violations are all
// below 0.2, the gate in front of the robustness constraint's Monte-Carlo
// samples.
func onMonteCarloGate(v []float64) bool {
	return v[sizing.ConsDR] < 0.2 && v[sizing.ConsOR] < 0.2 && v[sizing.ConsST] < 0.2 &&
		v[sizing.ConsSE] < 0.2 && v[sizing.ConsSatRegion] < 0.2 && v[sizing.ConsPM] < 0.2
}

// nearFeasibleGenomes returns n integrator designs clustered on the
// Monte-Carlo gate: anchors from a seeded random search that pass it, each
// member one anchor plus a small gaussian jitter.
func nearFeasibleGenomes(seed int64, n int) [][]float64 {
	prob := sizing.New(process.Default018(), sizing.PaperSpec())
	s := rng.New(seed)
	var anchors [][]float64
	for len(anchors) < 8 {
		x := make([]float64, sizing.NumGenes)
		for g := range x {
			x[g] = s.Float64()
		}
		if onMonteCarloGate(prob.Evaluate(x).Violations) {
			anchors = append(anchors, x)
		}
	}
	xs := make([][]float64, n)
	for i := range xs {
		a := anchors[i%len(anchors)]
		xs[i] = make([]float64, sizing.NumGenes)
		for g := range a {
			xs[i][g] = a[g] + 0.02*s.Norm()
		}
	}
	return xs
}

func TestTryEvaluateWithRobustIntegratorBitIdentical(t *testing.T) {
	prob := sizing.New(process.Default018(), sizing.PaperSpec(),
		sizing.WithRobustness(yield.NewEstimator(5, 8)))
	xs := nearFeasibleGenomes(1, 100)
	nominal := sizing.New(process.Default018(), sizing.PaperSpec())
	gated := 0
	for _, x := range xs {
		if onMonteCarloGate(nominal.Evaluate(x).Violations) {
			gated++
		}
	}
	if gated < len(xs)/2 {
		t.Fatalf("%d of %d designs reach the Monte-Carlo pass, want at least half", gated, len(xs))
	}
	population := func() Population {
		p := make(Population, len(xs))
		for i, x := range xs {
			p[i] = &Individual{X: slices.Clone(x)}
		}
		return p
	}
	// The reference is the scalar path, one design at a time, not the lane
	// batch path under test.
	ref := make([]objective.Result, len(xs))
	for i, x := range xs {
		ref[i] = prob.Evaluate(x)
	}
	pool := NewPool(8)
	defer pool.Close()
	for _, workers := range []int{1, 2, 3, 4, 8} {
		pop := population()
		if err := pop.TryEvaluateWith(prob, pool, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range pop {
			if want := ref[i].TotalViolation(); math.Float64bits(pop[i].Violation) != math.Float64bits(want) {
				t.Fatalf("workers=%d design %d: violation %v, want %v", workers, i, pop[i].Violation, want)
			}
			for k, want := range ref[i].Objectives {
				if got := pop[i].Objectives[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers=%d design %d objective %d: %v, want %v", workers, i, k, got, want)
				}
			}
		}
	}
}

// inPlaceBatch is an allocation-free BatchProblem (two objectives, no
// constraints), so allocation tests see only the dispatch.
type inPlaceBatch struct{ lo, hi []float64 }

func (*inPlaceBatch) Name() string                 { return "in-place" }
func (b *inPlaceBatch) NumVars() int               { return len(b.lo) }
func (*inPlaceBatch) NumObjectives() int           { return 2 }
func (*inPlaceBatch) NumConstraints() int          { return 0 }
func (b *inPlaceBatch) Bounds() (lo, hi []float64) { return b.lo, b.hi }
func (b *inPlaceBatch) Evaluate(x []float64) objective.Result {
	return objective.Result{Objectives: []float64{x[0], -x[1]}}
}

func (b *inPlaceBatch) EvaluateBatch(xs [][]float64, out []objective.Result) {
	for i, x := range xs {
		out[i].Objectives[0], out[i].Objectives[1] = x[0], -x[1]
	}
}

func TestPooledDispatchZeroAlloc(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var prob objective.Problem = &inPlaceBatch{lo: make([]float64, 4), hi: []float64{1, 1, 1, 1}}
	pop := batchTestPopulation(17, 128, prob)
	// Warm what a long run has warmed: one evaluation scratch per
	// participant, the individuals' objective buffers, the recycled job,
	// task and fault collector.
	var held []*evalScratch
	for range 4 {
		sc := getEvalScratch(len(pop))
		for i := range sc.res {
			sc.res[i].Prepare(2, 0)
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		putEvalScratch(sc)
	}
	for range 10 {
		if err := pop.TryEvaluateWith(prob, pool, 4); err != nil {
			t.Fatal(err)
		}
	}
	for name, fn := range map[string]func(){
		"TryEvaluateWith": func() { _ = pop.TryEvaluateWith(prob, pool, 4) },
		"RunLimit":        func() { pool.RunLimit(64, 0, func(int) {}) },
	} {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s on NewPool(4): %.1f allocs/run, want 0", name, avg)
		}
	}
}
