// Cross-engine property tests of the unified driver API: checkpoint/resume
// determinism, the uniform evaluation budget, cancellation and the
// zero-allocation driver overhead.
package search_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/mesacga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// engineCase describes one algorithm configuration under test.
type engineCase struct {
	name  string // registry name
	label string // test label (distinguishes sacga variants)
	// prob builds the test problem: the constrained Constr benchmark for
	// the partitioned algorithms (so phase I genuinely runs) and ZDT1
	// elsewhere.
	prob func() objective.Problem
	opts func() search.Options
	// checkpointGens are the generations the resume property is probed at,
	// chosen to land in different phases of the algorithm.
	checkpointGens []int
	// perGen is an upper bound on evaluations per generation, for the
	// budget property.
	perGen int64
}

func cases() []engineCase {
	return []engineCase{
		{
			name:  "nsga2",
			label: "nsga2",
			prob:  testProblem,
			opts: func() search.Options {
				return search.Options{PopSize: 20, Generations: 12, Seed: 3}
			},
			checkpointGens: []int{1, 6, 11},
			perGen:         20,
		},
		{
			name:  "sacga",
			label: "sacga",
			prob:  constrProblem,
			opts: func() search.Options {
				return search.Options{
					PopSize: 24, Generations: 13, Seed: 5,
					Extra: &sacga.Params{
						Partitions: 4, PartitionObjective: 0,
						PartitionLo: 0.1, PartitionHi: 1,
						GentMax: 4, Span: 9,
					},
				}
			},
			// Phase I (or just after), the transition region, and deep in
			// phase II; the span-9 tail guarantees all three exist.
			checkpointGens: []int{2, 5, 8},
			perGen:         24,
		},
		{
			name:  "sacga",
			label: "sacga-local",
			prob:  testProblem,
			opts: func() search.Options {
				return search.Options{
					PopSize: 20, Generations: 10, Seed: 9,
					Extra: &sacga.Params{
						Partitions: 4, PartitionObjective: 0,
						PartitionLo: 0, PartitionHi: 1, LocalOnly: true,
					},
				}
			},
			checkpointGens: []int{3, 8},
			perGen:         20,
		},
		{
			name:  "mesacga",
			label: "mesacga",
			prob:  constrProblem,
			opts: func() search.Options {
				return search.Options{
					PopSize: 20, Generations: 16, Seed: 7,
					Extra: &mesacga.Params{
						Schedule: []int{4, 2, 1}, PartitionObjective: 0,
						PartitionLo: 0.1, PartitionHi: 1,
						GentMax: 4, Span: 3,
					},
				}
			},
			// Phase I (or just after), mid-schedule, and the final
			// single-partition phase; total = gent + 9 ≥ 9 generations.
			checkpointGens: []int{2, 5, 8},
			perGen:         20,
		},
		{
			name:  sched.NameParallelIslands,
			label: "parallel-islands",
			prob:  testProblem,
			opts: func() search.Options {
				return search.Options{
					PopSize: 24, Generations: 10, Seed: 11,
					Extra: &sched.IslandsParams{
						Replicas: 3, MigrationEvery: 3, Migrants: 2,
					},
				}
			},
			// Mid-run, immediately after a migration, and one before done.
			checkpointGens: []int{3, 6, 9},
			perGen:         24,
		},
	}
}

func testProblem() objective.Problem { return benchfn.ZDT1(6) }

func constrProblem() objective.Problem { return benchfn.Constr() }

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

// TestCheckpointResume pins the resume contract: Checkpoint at
// generation k, Restore on a fresh engine, run to the end — bit-identical
// to the uninterrupted run, at every probed k and for every algorithm.
func TestCheckpointResume(t *testing.T) {
	for _, tc := range cases() {
		for _, k := range tc.checkpointGens {
			t.Run(tc.label+"/k="+string(rune('0'+k/10))+string(rune('0'+k%10)), func(t *testing.T) {
				prob := tc.prob()
				eng, err := search.New(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Init(prob, tc.opts()); err != nil {
					t.Fatal(err)
				}
				var cp *search.Checkpoint
				for !eng.Done() {
					if err := eng.Step(); err != nil {
						t.Fatal(err)
					}
					if eng.Generation() == k && cp == nil {
						cp = eng.Checkpoint()
					}
				}
				if cp == nil {
					t.Fatalf("run finished at generation %d before checkpoint generation %d", eng.Generation(), k)
				}

				fresh, err := search.New(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := search.Resume(context.Background(), fresh, prob, tc.opts(), cp)
				if err != nil {
					t.Fatal(err)
				}
				if res.Generations != eng.Generation() {
					t.Fatalf("resumed run ended at generation %d, uninterrupted at %d", res.Generations, eng.Generation())
				}
				popsIdentical(t, "final", eng.Population(), res.Final)
				popsIdentical(t, "front", eng.Population().FirstFront(), res.Front)
			})
		}
	}
}

// TestCheckpointIsDeepCopy drives the engine past a checkpoint and then
// restores it twice; both resumed runs must agree — impossible if the
// snapshot aliased live engine buffers.
func TestCheckpointIsDeepCopy(t *testing.T) {
	tc := cases()[1] // sacga
	prob := tc.prob()
	eng, _ := search.New(tc.name)
	if err := eng.Init(prob, tc.opts()); err != nil {
		t.Fatal(err)
	}
	var cp *search.Checkpoint
	for !eng.Done() {
		eng.Step()
		if eng.Generation() == 6 && cp == nil {
			cp = eng.Checkpoint()
		}
	}
	a, _ := search.New(tc.name)
	resA, err := search.Resume(context.Background(), a, prob, tc.opts(), cp)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := search.New(tc.name)
	resB, err := search.Resume(context.Background(), b, prob, tc.opts(), cp)
	if err != nil {
		t.Fatal(err)
	}
	popsIdentical(t, "double-resume", resA.Final, resB.Final)
}

// TestMaxEvalsUniformStop checks the budget satellite: with MaxEvals set,
// every engine stops within one generation's worth of evaluations of the
// budget, well short of its generation budget.
func TestMaxEvalsUniformStop(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.label, func(t *testing.T) {
			opts := tc.opts()
			opts.MaxEvals = 4 * tc.perGen // init + ~3 generations
			eng, err := search.New(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := search.Run(context.Background(), eng, tc.prob(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evals < opts.MaxEvals {
				t.Fatalf("stopped at %d evals, budget %d not reached", res.Evals, opts.MaxEvals)
			}
			if slack := res.Evals - opts.MaxEvals; slack >= tc.perGen {
				t.Fatalf("overshot the budget by %d evals (≥ one generation of %d)", slack, tc.perGen)
			}
			if res.Generations >= opts.Generations && tc.label != "mesacga" {
				t.Fatalf("ran all %d generations; budget did not bind", res.Generations)
			}
		})
	}
}

// TestRunCancellation cancels mid-run from an observer and checks Run
// returns the context error together with the partial result.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopAt := 5
	obs := search.ObserverFunc(func(f *search.Frame) {
		if f.Gen == stopAt {
			cancel()
		}
	})
	eng, _ := search.New("nsga2")
	res, err := search.Run(ctx, eng, testProblem(),
		search.Options{PopSize: 16, Generations: 200, Seed: 2}, obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Generations != stopAt {
		t.Fatalf("partial result has %v generations, want %d", res, stopAt)
	}
	if len(res.Front) == 0 {
		t.Fatal("cancelled run must still report its best-so-far front")
	}
}

// TestObserverSequence checks the frame contract: generations count up by
// one from 1, evaluation counts never decrease, and the population view is
// always populated.
func TestObserverSequence(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.label, func(t *testing.T) {
			lastGen, lastEvals := 0, int64(0)
			obs := search.ObserverFunc(func(f *search.Frame) {
				if f.Gen != lastGen+1 {
					t.Fatalf("generation jumped %d -> %d", lastGen, f.Gen)
				}
				if f.Evals < lastEvals {
					t.Fatalf("evals decreased %d -> %d", lastEvals, f.Evals)
				}
				if len(f.Pop) == 0 {
					t.Fatal("empty population view")
				}
				lastGen, lastEvals = f.Gen, f.Evals
			})
			eng, _ := search.New(tc.name)
			res, err := search.Run(context.Background(), eng, tc.prob(), tc.opts(), obs)
			if err != nil {
				t.Fatal(err)
			}
			if lastGen != res.Generations {
				t.Fatalf("observer saw %d generations, result says %d", lastGen, res.Generations)
			}
		})
	}
}

// TestHypervolumeObserverTrace exercises the pooled per-generation
// recompute hook on a real run.
func TestHypervolumeObserverTrace(t *testing.T) {
	hv := &search.HypervolumeObserver{}
	eng, _ := search.New("nsga2")
	res, err := search.Run(context.Background(), eng, testProblem(),
		search.Options{PopSize: 16, Generations: 10, Seed: 4}, hv)
	if err != nil {
		t.Fatal(err)
	}
	if len(hv.Trace) != res.Generations {
		t.Fatalf("trace has %d samples, want %d", len(hv.Trace), res.Generations)
	}
	for i, s := range hv.Trace {
		if s.Gen != i+1 {
			t.Fatalf("sample %d has gen %d", i, s.Gen)
		}
		if math.IsNaN(s.HV) {
			t.Fatalf("sample %d is NaN", i)
		}
	}
	if hv.Last().HV != hv.Trace[len(hv.Trace)-1].HV {
		t.Fatal("Last() disagrees with the trace")
	}
}

// TestRegistryNames checks every algorithm is selectable by string once its
// package is linked in.
func TestRegistryNames(t *testing.T) {
	want := []string{"mesacga", "nsga2", "sacga"}
	got := search.Names()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry %v is missing %q", got, w)
		}
	}
	if _, err := search.New("no-such-algo"); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

// TestExtensionTypeMismatch checks the wrong extension struct is a clear
// Init error for every engine rather than a silent misconfiguration.
func TestExtensionTypeMismatch(t *testing.T) {
	wrong := search.Options{Extra: &struct{ Bogus int }{}}
	for _, name := range []string{"nsga2", "sacga", "mesacga"} {
		eng, _ := search.New(name)
		if err := eng.Init(testProblem(), wrong); err == nil {
			t.Fatalf("%s: Init accepted a %T extension", name, wrong.Extra)
		}
	}
}

// TestScheduleValidation checks malformed MESACGA partition schedules are
// rejected at Init with a clear error.
func TestScheduleValidation(t *testing.T) {
	bad := [][]int{
		{},        // handled by defaulting, never an error — see below
		{4, 2},    // does not reach the merging single-partition phase
		{2, 4, 1}, // increasing mid-schedule
		{4, 0, 1}, // non-positive entry
	}
	base := func(schedule []int) search.Options {
		return search.Options{
			PopSize: 10, Generations: 6, Seed: 1,
			Extra: &mesacga.Params{Schedule: schedule, PartitionObjective: 0, PartitionHi: 1, GentMax: 2, Span: 1},
		}
	}
	// Empty schedule defaults rather than erroring.
	eng, _ := search.New("mesacga")
	if err := eng.Init(testProblem(), base(bad[0])); err != nil {
		t.Fatalf("empty schedule must default, got %v", err)
	}
	for _, sched := range bad[1:] {
		eng, _ := search.New("mesacga")
		if err := eng.Init(testProblem(), base(sched)); err == nil {
			t.Fatalf("schedule %v must be rejected", sched)
		}
	}
}

// TestRestoreMismatch checks a checkpoint cannot be restored onto the
// wrong algorithm.
func TestRestoreMismatch(t *testing.T) {
	eng, _ := search.New("nsga2")
	opts := search.Options{PopSize: 10, Generations: 3, Seed: 1}
	if err := eng.Init(testProblem(), opts); err != nil {
		t.Fatal(err)
	}
	eng.Step()
	cp := eng.Checkpoint()
	wrongEng, _ := search.New("sacga")
	if err := wrongEng.Restore(testProblem(), opts, cp); err == nil {
		t.Fatal("sacga must refuse an nsga2 checkpoint")
	}
}

// zeroAllocProblem is a trivial two-objective problem implementing the
// in-place and batch fast paths, so engine steps over it allocate nothing
// at steady state — isolating the driver wrapper's own allocations.
type zeroAllocProblem struct{ nvar int }

func (p *zeroAllocProblem) Name() string        { return "zero-alloc" }
func (p *zeroAllocProblem) NumVars() int        { return p.nvar }
func (p *zeroAllocProblem) NumObjectives() int  { return 2 }
func (p *zeroAllocProblem) NumConstraints() int { return 0 }
func (p *zeroAllocProblem) Bounds() (lo, hi []float64) {
	lo = make([]float64, p.nvar)
	hi = make([]float64, p.nvar)
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}

func (p *zeroAllocProblem) Evaluate(x []float64) objective.Result {
	var out objective.Result
	p.EvaluateInto(x, &out)
	return out
}

func (p *zeroAllocProblem) EvaluateInto(x []float64, out *objective.Result) {
	out.Prepare(2, 0)
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	out.Objectives[0] = s
	out.Objectives[1] = 1 - x[0]
}

func (p *zeroAllocProblem) EvaluateBatch(xs [][]float64, out []objective.Result) {
	for i, x := range xs {
		p.EvaluateInto(x, &out[i])
	}
}

// TestDriverStepAllocs proves the observer/step-loop wrapper adds zero
// allocations per generation over the engine's own steady state (which is
// itself allocation-free on a fast-path problem).
func TestDriverStepAllocs(t *testing.T) {
	prob := &zeroAllocProblem{nvar: 6}
	eng := new(nsga2.Engine)
	err := eng.Init(prob, search.Options{PopSize: 32, Generations: 1 << 30, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	d := search.NewDriver(eng, search.ObserverFunc(func(f *search.Frame) { seen = f.Gen }))
	ctx := context.Background()
	for i := 0; i < 5; i++ { // warm every recycled buffer
		if _, err := d.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Step(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("driver step allocates %.1f times per generation, want 0", allocs)
	}
	if seen == 0 {
		t.Fatal("observer never ran")
	}
}

// neverFeasibleProblem has a constraint no point satisfies, so SACGA's
// phase I never reaches feasibility coverage and runs to its cap.
type neverFeasibleProblem struct{ objective.Problem }

func (p neverFeasibleProblem) NumConstraints() int { return 1 }

func (p neverFeasibleProblem) Evaluate(x []float64) objective.Result {
	r := p.Problem.Evaluate(x)
	r.Violations = append(r.Violations, 1)
	return r
}

// TestDerivedSpanBoundsPhaseI is the regression for the budget-overrun
// bug: in derived-span mode (no pinned Span), a never-feasible problem
// must not let the default 200-generation phase-I cap blow past a smaller
// Options.Generations — the run stays within the budget plus the
// documented one-iteration-per-phase floor.
func TestDerivedSpanBoundsPhaseI(t *testing.T) {
	prob := neverFeasibleProblem{Problem: benchfn.ZDT1(4)}
	t.Run("sacga", func(t *testing.T) {
		eng, _ := search.New("sacga")
		res, err := search.Run(context.Background(), eng, prob, search.Options{
			PopSize: 10, Generations: 20, Seed: 1,
			Extra: &sacga.Params{Partitions: 2, PartitionObjective: 0, PartitionHi: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations > 21 { // budget + span floor of 1
			t.Fatalf("ran %d generations for a budget of 20", res.Generations)
		}
	})
	t.Run("mesacga", func(t *testing.T) {
		sched := []int{2, 1}
		eng, _ := search.New("mesacga")
		res, err := search.Run(context.Background(), eng, prob, search.Options{
			PopSize: 10, Generations: 20, Seed: 1,
			Extra: &mesacga.Params{Schedule: sched, PartitionObjective: 0, PartitionHi: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Generations > 20+len(sched) { // budget + per-phase floor of 1
			t.Fatalf("ran %d generations for a budget of 20", res.Generations)
		}
	})
}

// TestCheckpointGobRoundTrip checks the documented persistence path: a
// Checkpoint gob-encodes (the engine packages register their Snapshot
// types), decodes in a fresh buffer, and resumes bit-identically.
func TestCheckpointGobRoundTrip(t *testing.T) {
	tc := cases()[1] // sacga
	prob := tc.prob()
	eng, _ := search.New(tc.name)
	if err := eng.Init(prob, tc.opts()); err != nil {
		t.Fatal(err)
	}
	var cp *search.Checkpoint
	for !eng.Done() {
		eng.Step()
		if eng.Generation() == 5 && cp == nil {
			cp = eng.Checkpoint()
		}
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var decoded search.Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatalf("gob decode: %v", err)
	}

	resumed, _ := search.New(tc.name)
	res, err := search.Resume(context.Background(), resumed, prob, tc.opts(), &decoded)
	if err != nil {
		t.Fatal(err)
	}
	popsIdentical(t, "gob-resumed final", eng.Population(), res.Final)
}
