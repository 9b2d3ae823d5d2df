// Property tests of the multi-engine scheduler: bit-identical results
// across StepWorkers and GOMAXPROCS settings (the determinism contract),
// checkpoint/resume — including a relay resumed exactly mid-handoff — the
// shared evaluation budget, and the typed configuration errors.
package sched_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"runtime"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	_ "sacga/internal/mesacga" // a registered engine that is NOT a Migrator
	_ "sacga/internal/nsga2"   // the default replica engine
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/sched"
	"sacga/internal/search"
)

func testProblem() objective.Problem { return benchfn.ZDT1(6) }

func constrProblem() objective.Problem { return benchfn.Constr() }

func sacgaParams() *sacga.Params {
	return &sacga.Params{Partitions: 2, PartitionObjective: 0, PartitionLo: 0.1, PartitionHi: 1, GentMax: 3}
}

// popsIdentical compares two populations bit for bit: genes, cached
// objectives, violations, ranks and crowding.
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
		if x.Crowding != y.Crowding && !(math.IsInf(x.Crowding, 1) && math.IsInf(y.Crowding, 1)) {
			t.Fatalf("%s: individual %d crowding %v != %v", what, i, x.Crowding, y.Crowding)
		}
	}
}

// runToEnd drives an engine from Init to Done and returns a deep copy of
// its final population.
func runToEnd(t *testing.T, name string, prob objective.Problem, opts search.Options) ga.Population {
	t.Helper()
	eng, err := search.New(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), eng, prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Final.Clone()
}

// islandsOpts is the ParallelIslands configuration the determinism and
// checkpoint properties run under: migration crosses several exchanges.
func islandsOpts(stepWorkers int, algo string, extra any) search.Options {
	return search.Options{
		PopSize: 24, Generations: 12, Seed: 7,
		Extra: &sched.IslandsParams{
			Replicas: 3, Algo: algo, Extra: extra,
			MigrationEvery: 4, Migrants: 2,
			StepWorkers: stepWorkers,
		},
	}
}

// TestParallelIslandsDeterministic pins the acceptance criterion: the
// pooled result is bit-identical whether replicas step sequentially
// (round-robin, StepWorkers=1) or concurrently, at GOMAXPROCS 1 and 4,
// for NSGA-II and SACGA replicas.
func TestParallelIslandsDeterministic(t *testing.T) {
	variants := []struct {
		label string
		algo  string
		extra any
		prob  func() objective.Problem
	}{
		{"nsga2-ring", "nsga2", nil, testProblem},
		{"sacga-ring", "sacga", sacgaParams(), constrProblem},
	}
	for _, v := range variants {
		t.Run(v.label, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			runtime.GOMAXPROCS(1)
			want := runToEnd(t, "parallel-islands", v.prob(), islandsOpts(1, v.algo, v.extra))
			for _, procs := range []int{1, 4} {
				for _, workers := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					got := runToEnd(t, "parallel-islands", v.prob(), islandsOpts(workers, v.algo, v.extra))
					popsIdentical(t, v.label, want, got)
				}
			}
		})
	}
}

// TestParallelIslandsCheckpointResume checkpoints a concurrent run at
// epochs on both sides of a migration exchange and resumes each on a fresh
// engine: bit-identical to the uninterrupted run.
func TestParallelIslandsCheckpointResume(t *testing.T) {
	prob := testProblem()
	opts := islandsOpts(4, "nsga2", nil)
	eng, err := search.New("parallel-islands")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(prob, opts); err != nil {
		t.Fatal(err)
	}
	cps := map[int]*search.Checkpoint{}
	for !eng.Done() {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		if g := eng.Generation(); g == 3 || g == 4 || g == 9 {
			cps[g] = eng.Checkpoint()
		}
	}
	for g, cp := range cps {
		fresh, err := search.New("parallel-islands")
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.Resume(context.Background(), fresh, prob, opts, cp)
		if err != nil {
			t.Fatalf("resume at epoch %d: %v", g, err)
		}
		popsIdentical(t, "resume", eng.Population(), res.Final)
	}
}

func relayOpts() search.Options {
	return search.Options{
		PopSize: 20, Generations: 14, Seed: 3,
		Extra: &sched.RelayParams{Legs: []sched.Leg{
			{Algo: "nsga2", Generations: 5},
			{Algo: "sacga", Extra: sacgaParams()}, // remainder: 9 generations
		}},
	}
}

// TestRelayResumeMidHandoff pins the second acceptance property:
// checkpointing a relay at EVERY generation — including generation 5,
// where leg 0 is finished but the handoff has not yet run — and resuming
// on a fresh engine reproduces the uninterrupted run bit for bit.
func TestRelayResumeMidHandoff(t *testing.T) {
	prob := constrProblem()
	opts := relayOpts()
	eng, err := search.New("relay")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(prob, opts); err != nil {
		t.Fatal(err)
	}
	var cps []*search.Checkpoint
	for !eng.Done() {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		cps = append(cps, eng.Checkpoint())
	}
	if len(cps) != 14 {
		t.Fatalf("relay ran %d generations, want 14", len(cps))
	}
	for g, cp := range cps {
		fresh, err := search.New("relay")
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.Resume(context.Background(), fresh, constrProblem(), relayOpts(), cp)
		if err != nil {
			t.Fatalf("resume at generation %d: %v", g+1, err)
		}
		if res.Generations != eng.Generation() {
			t.Fatalf("resume at generation %d ended at %d, uninterrupted at %d", g+1, res.Generations, eng.Generation())
		}
		popsIdentical(t, "resume", eng.Population(), res.Final)
	}
}

// TestRelayWarmStartsNextLeg checks the handoff actually seeds leg 1: a
// relay whose second leg starts from leg 0's population must differ from a
// cold sacga run with the same per-leg seed, and the relay's active-leg
// index must advance at the boundary.
func TestRelayWarmStartsNextLeg(t *testing.T) {
	prob := constrProblem()
	eng := new(sched.Relay)
	if err := eng.Init(prob, relayOpts()); err != nil {
		t.Fatal(err)
	}
	sawLeg0 := false
	for !eng.Done() {
		if eng.Leg() == 0 {
			sawLeg0 = true
		}
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawLeg0 || eng.Leg() != 1 {
		t.Fatalf("relay never advanced legs (saw leg 0: %v, final leg %d)", sawLeg0, eng.Leg())
	}
	if eng.Generation() != 14 {
		t.Fatalf("relay executed %d generations, want 14", eng.Generation())
	}
}

// TestPortfolioDeterministic races nsga2 against sacga at StepWorkers 1
// and 4 under GOMAXPROCS 1 and 4: pooled results must be bit-identical,
// and the boost must have elected a member.
func TestPortfolioDeterministic(t *testing.T) {
	opts := func(workers int) search.Options {
		return search.Options{
			PopSize: 16, Generations: 10, Seed: 5,
			Extra: &sched.PortfolioParams{
				Members: []sched.Member{
					{Algo: "nsga2"},
					{Algo: "sacga", Extra: sacgaParams()},
				},
				StepWorkers: workers,
			},
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want := runToEnd(t, "portfolio", constrProblem(), opts(1))
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got := runToEnd(t, "portfolio", constrProblem(), opts(workers))
			popsIdentical(t, "portfolio", want, got)
		}
	}
}

// TestPortfolioCheckpointResume snapshots a race mid-run and resumes it.
func TestPortfolioCheckpointResume(t *testing.T) {
	opts := search.Options{
		PopSize: 16, Generations: 8, Seed: 2,
		Extra: &sched.PortfolioParams{
			Members: []sched.Member{
				{Algo: "nsga2"},
				{Algo: "sacga", Extra: sacgaParams()},
			},
			StepWorkers: 4,
		},
	}
	prob := constrProblem()
	eng := new(sched.Portfolio)
	if err := eng.Init(prob, opts); err != nil {
		t.Fatal(err)
	}
	var cp *search.Checkpoint
	for !eng.Done() {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		if eng.Generation() == 3 && cp == nil {
			cp = eng.Checkpoint()
		}
	}
	fresh := new(sched.Portfolio)
	res, err := search.Resume(context.Background(), fresh, prob, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	popsIdentical(t, "portfolio resume", eng.Population(), res.Final)
	if fresh.Best() != eng.Best() {
		t.Fatalf("resumed race boosts member %d, uninterrupted boosts %d", fresh.Best(), eng.Best())
	}
}

// TestScheduledBudget checks the shared-budget stop rule of every
// scheduler: with MaxEvals set, the run stops at the first epoch boundary
// at or past the cap, i.e. within one epoch's worth of evaluations, and
// before the last epoch of the same run without a cap.
func TestScheduledBudget(t *testing.T) {
	portfolio := search.Options{
		PopSize: 16, Generations: 10, Seed: 5,
		Extra: &sched.PortfolioParams{Members: []sched.Member{
			{Algo: "nsga2"},
			{Algo: "sacga", Extra: sacgaParams()},
		}},
	}
	cases := []struct {
		name     string
		prob     func() objective.Problem
		opts     search.Options
		maxEvals int64
		perEpoch int64 // the most evaluations one epoch consumes
	}{
		// 3 replicas × 8 individuals.
		{"parallel-islands", testProblem, islandsOpts(4, "nsga2", nil), 96, 24},
		// The cap falls in the handoff epoch, which evaluates the second
		// leg's initial population and its first generation (2 × 20).
		{"relay", constrProblem, relayOpts(), 150, 40},
		// Two members of 16 individuals, one boosted by 2 generations.
		{"portfolio", constrProblem, portfolio, 200, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts search.Options) *search.Result {
				eng, err := search.New(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := search.Run(context.Background(), eng, tc.prob(), opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			full := run(tc.opts)
			opts := tc.opts
			opts.MaxEvals = tc.maxEvals
			res := run(opts)
			if res.Evals < opts.MaxEvals {
				t.Fatalf("stopped at %d evals, budget %d not reached", res.Evals, opts.MaxEvals)
			}
			if slack := res.Evals - opts.MaxEvals; slack >= tc.perEpoch {
				t.Fatalf("overshot the budget by %d evals (≥ one epoch of %d)", slack, tc.perEpoch)
			}
			if res.Generations >= full.Generations {
				t.Fatalf("ran all %d epochs; budget did not bind", res.Generations)
			}
		})
	}
}

// TestParallelIslandsPoolsFront checks the final pooled population is
// globally ranked with a non-empty, feasible first front of the total
// size — on a constrained problem too — and that a longer ZDT1 run comes
// within gap of the optimal front.
func TestParallelIslandsPoolsFront(t *testing.T) {
	for _, tc := range []struct {
		name string
		prob objective.Problem
		opts search.Options
		gap  float64 // the largest f1 - (1 - sqrt(f0)) allowed; 0 skips it
	}{
		{"zdt1", testProblem(), islandsOpts(2, "nsga2", nil), 0},
		{"constr", constrProblem(), search.Options{PopSize: 60, Generations: 50, Seed: 5,
			Extra: &sched.IslandsParams{Replicas: 3}}, 0},
		{"zdt1-converges", benchfn.ZDT1(8), search.Options{PopSize: 80, Generations: 60, Seed: 1,
			Extra: &sched.IslandsParams{Replicas: 4}}, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := search.New("parallel-islands")
			res, err := search.Run(context.Background(), eng, tc.prob, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Final) != tc.opts.PopSize {
				t.Fatalf("pooled population has %d members, want %d", len(res.Final), tc.opts.PopSize)
			}
			if len(res.Front) == 0 || len(res.Front) > len(res.Final) {
				t.Fatalf("pooled front has %d members", len(res.Front))
			}
			for _, ind := range res.Front {
				if ind.Rank != 0 || !ind.Feasible() {
					t.Fatalf("front member has global rank %d and violation %g", ind.Rank, ind.Violation)
				}
				if gap := ind.Objectives[1] - (1 - math.Sqrt(ind.Objectives[0])); tc.gap > 0 && gap > tc.gap {
					t.Fatalf("front member %v is %g from the optimal front", ind.Objectives, gap)
				}
			}
		})
	}
}

// TestParallelIslandsMigrationChangesRun checks the ring exchange reaches
// the replicas: the same ensemble with migration disabled ends with a
// different pooled population.
func TestParallelIslandsMigrationChangesRun(t *testing.T) {
	opts := islandsOpts(2, "nsga2", nil)
	mig := runToEnd(t, "parallel-islands", testProblem(), opts)
	opts.Extra.(*sched.IslandsParams).MigrationEvery = -1
	iso := runToEnd(t, "parallel-islands", testProblem(), opts)
	for i := range mig {
		for k := range mig[i].X {
			if mig[i].X[k] != iso[i].X[k] {
				return
			}
		}
	}
	t.Fatal("migration had no effect on the run")
}

// TestParallelIslandsMigrationPreservesPopulationSizes checks migration
// replaces members rather than adding them: the pooled view holds the
// whole population at every epoch, exchanges included.
func TestParallelIslandsMigrationPreservesPopulationSizes(t *testing.T) {
	obs := search.ObserverFunc(func(f *search.Frame) {
		if len(f.Pop) != 3*14 {
			t.Fatalf("pooled size %d at epoch %d, want %d", len(f.Pop), f.Gen, 3*14)
		}
	})
	eng, _ := search.New("parallel-islands")
	_, err := search.Run(context.Background(), eng, benchfn.ZDT1(6), search.Options{
		PopSize: 3 * 14, Generations: 20, Seed: 4,
		Extra: &sched.IslandsParams{Replicas: 3, MigrationEvery: 3, Migrants: 2},
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRegistry checks all three drivers register by name.
func TestSchedulerRegistry(t *testing.T) {
	for _, name := range []string{"parallel-islands", "relay", "portfolio"} {
		if _, err := search.New(name); err != nil {
			t.Fatalf("registry: %v", err)
		}
	}
}

// TestSchedulerExtraTypeError checks a misrouted extension struct
// surfaces the typed *search.ExtraTypeError from Init — for the scheduler
// engines and, via errors.As, through their wrapping.
func TestSchedulerExtraTypeError(t *testing.T) {
	wrong := search.Options{Extra: &struct{ Bogus int }{}}
	for _, name := range []string{"parallel-islands", "relay", "portfolio", "nsga2", "sacga", "mesacga"} {
		eng, err := search.New(name)
		if err != nil {
			t.Fatal(err)
		}
		err = eng.Init(testProblem(), wrong)
		if err == nil {
			t.Fatalf("%s: Init accepted a %T extension", name, wrong.Extra)
		}
		var typed *search.ExtraTypeError
		if !errors.As(err, &typed) {
			t.Fatalf("%s: Init error %v is not a *search.ExtraTypeError", name, err)
		}
	}
}

// TestReplicaInitFailureCountsZero: replicas whose Init fails before
// evaluating anything — nsga2 handed an extension struct it rejects, or a
// relay with no legs — fail the scheduler's Init with their error and a
// zero budget. The tally must not read a count those replicas never
// started.
func TestReplicaInitFailureCountsZero(t *testing.T) {
	for _, p := range []*sched.IslandsParams{
		{Replicas: 2, Extra: &struct{ Bogus int }{}},
		{Replicas: 2, Algo: "relay", MigrationEvery: -1, Extra: &sched.RelayParams{}},
	} {
		eng, _ := search.New("parallel-islands")
		if err := eng.Init(testProblem(), search.Options{PopSize: 16, Generations: 2, Seed: 1, Extra: p}); err == nil {
			t.Fatalf("%s replicas: Init accepted an unusable configuration", p.Algo)
		}
		if got := eng.Evals(); got != 0 {
			t.Fatalf("%s replicas: failed Init counts %d evals, want 0", p.Algo, got)
		}
	}
}

// TestParallelIslandsRequiresMigrator checks migration over an engine
// without the Migrator hook is an Init-time error, and that disabling
// migration lifts the requirement.
func TestParallelIslandsRequiresMigrator(t *testing.T) {
	opts := search.Options{
		PopSize: 16, Generations: 4, Seed: 1,
		Extra: &sched.IslandsParams{Replicas: 2, Algo: "mesacga", MigrationEvery: 2},
	}
	eng, _ := search.New("parallel-islands")
	if err := eng.Init(testProblem(), opts); err == nil {
		t.Fatal("mesacga replicas with migration enabled must fail Init")
	}
	opts.Extra = &sched.IslandsParams{Replicas: 2, Algo: "mesacga", MigrationEvery: -1,
		Extra: nil}
	eng, _ = search.New("parallel-islands")
	if err := eng.Init(constrProblem(), opts); err != nil {
		t.Fatalf("isolated mesacga replicas must initialize: %v", err)
	}
}

// TestRelayRejectsEmptyLegs checks the configuration validation.
func TestRelayRejectsEmptyLegs(t *testing.T) {
	eng, _ := search.New("relay")
	if err := eng.Init(testProblem(), search.Options{Extra: &sched.RelayParams{}}); err == nil {
		t.Fatal("relay with no legs must fail Init")
	}
	eng, _ = search.New("relay")
	err := eng.Init(testProblem(), search.Options{Extra: &sched.RelayParams{Legs: []sched.Leg{{Algo: "no-such"}}}})
	if err == nil {
		t.Fatal("relay with an unknown leg algorithm must fail Init")
	}
}

// TestSchedulerObserverSequence checks the frame contract through the
// unified driver: epochs count up by one, evaluations never decrease.
func TestSchedulerObserverSequence(t *testing.T) {
	lastGen, lastEvals := 0, int64(0)
	obs := search.ObserverFunc(func(f *search.Frame) {
		if f.Gen != lastGen+1 {
			t.Fatalf("epoch jumped %d -> %d", lastGen, f.Gen)
		}
		if f.Evals < lastEvals {
			t.Fatalf("evals decreased %d -> %d", lastEvals, f.Evals)
		}
		if len(f.Pop) == 0 {
			t.Fatal("empty population view")
		}
		lastGen, lastEvals = f.Gen, f.Evals
	})
	eng, _ := search.New("parallel-islands")
	res, err := search.Run(context.Background(), eng, testProblem(), islandsOpts(4, "nsga2", nil), obs)
	if err != nil {
		t.Fatal(err)
	}
	if lastGen != res.Generations {
		t.Fatalf("observer saw %d epochs, result says %d", lastGen, res.Generations)
	}
}

// TestParallelIslandsBudgetMatchedPopulation pins the replica-share rule:
// the pooled population must hold EXACTLY Options.PopSize members, even
// when PopSize/Replicas is odd and the replica engine (nsga2) rounds odd
// populations up — shares are dealt in pairs so the ensemble stays
// budget-matched with a single engine.
func TestParallelIslandsBudgetMatchedPopulation(t *testing.T) {
	opts := search.Options{
		PopSize: 100, Generations: 2, Seed: 1,
		Extra: &sched.IslandsParams{Replicas: 4, Algo: "nsga2", MigrationEvery: -1},
	}
	eng, _ := search.New("parallel-islands")
	res, err := search.Run(context.Background(), eng, testProblem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != 100 {
		t.Fatalf("pooled population has %d members, want exactly 100", len(res.Final))
	}
	if res.Evals != int64(100+2*100) {
		t.Fatalf("consumed %d evals, want 300 (init + 2 epochs of 100)", res.Evals)
	}
}

// TestCompositeCheckpointBytesDeterministic pins the per-child evaluation
// accounting: two identically configured concurrent runs must produce
// byte-identical composite checkpoints — impossible if a child's budget
// sampled the ensemble-wide counter while siblings were mid-evaluation.
func TestCompositeCheckpointBytesDeterministic(t *testing.T) {
	snapshot := func() []byte {
		eng, _ := search.New("parallel-islands")
		if err := eng.Init(testProblem(), islandsOpts(4, "nsga2", nil)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(eng.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := snapshot(), snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical concurrent runs produced different checkpoint bytes")
	}
}
