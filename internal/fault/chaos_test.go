// The chaos suite: deterministic fault injection driven through the full
// search stack. Every scenario here is seeded — the same faults hit the
// same decision vectors on every run, at every worker count — so the suite
// can assert exact degraded outcomes, not just "it didn't crash".
package fault_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sacga/internal/benchfn"
	"sacga/internal/fault"
	"sacga/internal/ga"
	_ "sacga/internal/nsga2" // the engine the chaos scenarios drive
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/sched"
	"sacga/internal/search"
)

func zdt1() objective.Problem { return benchfn.ZDT1(6) }

// chaosRun drives one nsga2 run over a fault-wrapped problem.
func chaosRun(t *testing.T, cfg fault.Config, opts search.Options) (*search.Result, error, *fault.Injector) {
	t.Helper()
	inj := fault.NewInjector(cfg)
	eng, err := search.New("nsga2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), eng, fault.Wrap(zdt1(), inj), opts)
	return res, err, inj
}

// popSane checks the quarantine invariant: no NaN anywhere, no -Inf
// objective (quarantined individuals carry +Inf, which orders last).
func popSane(t *testing.T, pop ga.Population) {
	t.Helper()
	for i, ind := range pop {
		if math.IsNaN(ind.Violation) {
			t.Fatalf("individual %d: NaN violation leaked past quarantine", i)
		}
		for j, v := range ind.Objectives {
			if math.IsNaN(v) || math.IsInf(v, -1) {
				t.Fatalf("individual %d objective %d: %v leaked past quarantine", i, j, v)
			}
		}
	}
}

func popsIdentical(t *testing.T, what string, a, b ga.Population) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: size %d != %d", what, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		for j := range x.X {
			if x.X[j] != y.X[j] {
				t.Fatalf("%s: individual %d gene %d: %v != %v", what, i, j, x.X[j], y.X[j])
			}
		}
		for j := range x.Objectives {
			if x.Objectives[j] != y.Objectives[j] {
				t.Fatalf("%s: individual %d objective %d: %v != %v", what, i, j, x.Objectives[j], y.Objectives[j])
			}
		}
		if x.Violation != y.Violation || x.Rank != y.Rank {
			t.Fatalf("%s: individual %d violation/rank mismatch", what, i)
		}
	}
}

// TestInjectedPanicReturnsTypedErrorWithBestSoFar pins the first acceptance
// criterion: a panic injected into the (batch, pooled) evaluation path
// surfaces from search.Run as a typed *objective.EvalError — with the panic
// cause preserved through the chain — alongside a valid best-so-far Result.
func TestInjectedPanicReturnsTypedErrorWithBestSoFar(t *testing.T) {
	res, err, inj := chaosRun(t,
		fault.Config{Seed: 11, PPanic: 0.03},
		search.Options{PopSize: 32, Generations: 12, Seed: 3, Workers: 8})
	if err == nil {
		t.Fatal("no error from a run with injected panics")
	}
	var ee *objective.EvalError
	if !errors.As(err, &ee) {
		t.Fatalf("error is %T (%v), want *objective.EvalError", err, err)
	}
	if !errors.Is(err, fault.ErrInjectedPanic) {
		t.Fatalf("error chain lost the panic cause: %v", err)
	}
	if ee.Count < 1 || ee.Index < 0 || ee.Index >= 32 {
		t.Fatalf("implausible fault report: %+v", ee)
	}
	if inj.Injected(fault.KindPanic) < 1 {
		t.Fatal("injector recorded no panics")
	}
	if res == nil {
		t.Fatal("no best-so-far result alongside the typed error")
	}
	if len(res.Final) != 32 {
		t.Fatalf("degraded population has %d individuals, want 32", len(res.Final))
	}
	popSane(t, res.Final)
	if len(res.Front) == 0 {
		t.Fatal("degraded run lost its Pareto front")
	}
}

// TestDegradedRunBitIdenticalAcrossWorkerCounts pins the determinism
// contract under a mixed fault load: injection is keyed to evaluated
// content, so the degraded populations — and the fault report itself — are
// bit-identical whether evaluation runs sequentially or pooled at any
// worker count. (Evaluation *accounting* may differ: an aborted batch is
// re-evaluated row by row, and batch boundaries depend on the worker
// count.)
func TestDegradedRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := fault.Config{Seed: 5, PPanic: 0.02, PNaN: 0.02, PInf: 0.01, PSlow: 0.02, SlowFor: 200 * time.Microsecond}
	base := search.Options{PopSize: 32, Generations: 10, Seed: 9}

	run := func(workers int) (*search.Result, *objective.EvalError) {
		opts := base
		opts.Workers = workers
		res, err, _ := chaosRun(t, cfg, opts)
		var ee *objective.EvalError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("workers=%d: error is %T (%v), want *objective.EvalError", workers, err, err)
		}
		return res, ee
	}

	want, wantErr := run(1)
	popSane(t, want.Final)
	for _, workers := range []int{4, 8} {
		got, gotErr := run(workers)
		popsIdentical(t, "degraded population", want.Final, got.Final)
		if got.Generations != want.Generations {
			t.Fatalf("workers=%d: stopped at generation %d, sequential at %d", workers, got.Generations, want.Generations)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("workers=%d: fault report presence differs from sequential", workers)
		}
		if wantErr != nil && (gotErr.Index != wantErr.Index || gotErr.Count != wantErr.Count) {
			t.Fatalf("workers=%d: fault report {%d,%d} != sequential {%d,%d}",
				workers, gotErr.Index, gotErr.Count, wantErr.Index, wantErr.Count)
		}
	}
}

// TestNonFiniteResultsQuarantined pins the corruption-fault semantics at
// the evaluation layer: a NaN result and a -Inf objective ("infinitely
// good" — it would dominate every honest point) are both quarantined with
// worst-case objectives, and the call reports every casualty.
func TestNonFiniteResultsQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  fault.Config
	}{
		{"nan", fault.Config{Seed: 4, PNaN: 1}},
		{"neg-inf", fault.Config{Seed: 4, PInf: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob := fault.Wrap(zdt1(), fault.NewInjector(tc.cfg))
			lo, hi := prob.Bounds()
			pop := ga.NewRandomPopulation(rng.New(1), 16, lo, hi)
			err := pop.TryEvaluateWith(prob, nil, 1)
			var ee *objective.EvalError
			if !errors.As(err, &ee) {
				t.Fatalf("error is %T (%v), want *objective.EvalError", err, err)
			}
			if ee.Index != 0 || ee.Count != len(pop) {
				t.Fatalf("fault report {%d,%d}, want {0,%d}", ee.Index, ee.Count, len(pop))
			}
			if !errors.Is(err, objective.ErrNonFinite) {
				t.Fatalf("error chain lost the non-finite cause: %v", err)
			}
			for i, ind := range pop {
				if !math.IsInf(ind.Violation, 1) {
					t.Fatalf("individual %d: violation %v, want +Inf quarantine", i, ind.Violation)
				}
				for j, v := range ind.Objectives {
					if !math.IsInf(v, 1) {
						t.Fatalf("individual %d objective %d: %v, want +Inf quarantine", i, j, v)
					}
				}
			}
		})
	}
}

// TestSchedulerQuarantinedInitKeepsResult: when evaluation panics
// quarantine part of a scheduler's initial population, search.Run returns
// the *objective.EvalError alongside a Result that holds the degraded
// population and counts every evaluation the problem saw — for a relay,
// whose first leg is the one quarantined, and for both replica schedulers.
func TestSchedulerQuarantinedInitKeepsResult(t *testing.T) {
	cases := []struct {
		name  string
		extra any
	}{
		{sched.NameRelay, &sched.RelayParams{Legs: []sched.Leg{{Algo: "nsga2", Generations: 3}, {Algo: "nsga2"}}}},
		{sched.NameParallelIslands, &sched.IslandsParams{Replicas: 2}},
		{sched.NamePortfolio, &sched.PortfolioParams{Members: []sched.Member{{Algo: "nsga2"}, {Algo: "nsga2"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob := objective.NewCounter(fault.Wrap(zdt1(), fault.NewInjector(fault.Config{Seed: 3, PPanic: 0.5})))
			eng, err := search.New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := search.Run(context.Background(), eng, prob,
				search.Options{PopSize: 40, Generations: 6, Seed: 1, Extra: tc.extra})
			var ee *objective.EvalError
			if !errors.As(err, &ee) {
				t.Fatalf("error is %T (%v), want *objective.EvalError", err, err)
			}
			if res == nil || len(res.Final) == 0 {
				t.Fatal("no degraded population alongside the quarantined Init")
			}
			popSane(t, res.Final)
			if res.Evals == 0 || res.Evals != prob.Count() {
				t.Fatalf("result counts %d evals, the problem saw %d", res.Evals, prob.Count())
			}
		})
	}
}
