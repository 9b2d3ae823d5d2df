package sacga

import (
	"context"
	"math"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// zdtOptions partitions ZDT1's f1 axis: phase I capped at 20 iterations,
// then a pinned 80-iteration span.
func zdtOptions(pop, m int) search.Options {
	return search.Options{
		PopSize: pop,
		Seed:    1,
		Extra: &Params{
			Partitions:         m,
			PartitionObjective: 0,
			PartitionLo:        0,
			PartitionHi:        1,
			GentMax:            20,
			Span:               80,
		},
	}
}

func TestRunZDT1ProducesSpreadFront(t *testing.T) {
	_, res := runOK(t, benchfn.ZDT1(8), zdtOptions(60, 6))
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	// Front must be spread over most of f1's [0,1] range.
	lo, hi := 1.0, 0.0
	for _, ind := range res.Front {
		f1 := ind.Objectives[0]
		lo = math.Min(lo, f1)
		hi = math.Max(hi, f1)
	}
	if hi-lo < 0.5 {
		t.Fatalf("front extent %g too small: [%g, %g]", hi-lo, lo, hi)
	}
	// And reasonably converged to f2 = 1-sqrt(f1).
	worst := 0.0
	for _, ind := range res.Front {
		gap := ind.Objectives[1] - (1 - math.Sqrt(ind.Objectives[0]))
		worst = math.Max(worst, gap)
	}
	if worst > 0.6 {
		t.Fatalf("front too far from optimum: worst gap %g", worst)
	}
}

func TestRunDeterministic(t *testing.T) {
	_, a := runOK(t, benchfn.ZDT1(6), zdtOptions(30, 4))
	_, b := runOK(t, benchfn.ZDT1(6), zdtOptions(30, 4))
	if len(a.Final) != len(b.Final) {
		t.Fatal("sizes differ")
	}
	for i := range a.Final {
		for k := range a.Final[i].X {
			if a.Final[i].X[k] != b.Final[i].X[k] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func TestPhaseIEndsEarlyWhenFeasibleEverywhere(t *testing.T) {
	// ZDT1 is unconstrained: every partition is "feasible" as soon as it
	// is occupied, so phase I should terminate almost immediately.
	e, _ := runOK(t, benchfn.ZDT1(6), zdtOptions(40, 4))
	if e.GentUsed() > 10 {
		t.Fatalf("unconstrained phase I used %d iterations", e.GentUsed())
	}
}

func TestPopulationSizeStable(t *testing.T) {
	runOK(t, benchfn.ZDT1(6), zdtOptions(50, 5), search.ObserverFunc(func(f *search.Frame) {
		if len(f.Pop) != 50 {
			t.Fatalf("population size drifted to %d at gen %d", len(f.Pop), f.Gen)
		}
	}))
}

func TestConstrainedProblemFeasibleFront(t *testing.T) {
	_, res := runOK(t, benchfn.Constr(), search.Options{
		PopSize: 40,
		Seed:    3,
		Extra: &Params{
			Partitions:         5,
			PartitionObjective: 0,
			PartitionLo:        0.1,
			PartitionHi:        1,
			GentMax:            30,
			Span:               60,
		},
	})
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, ind := range res.Front {
		if !ind.Feasible() {
			t.Fatalf("infeasible point on final front: vio=%g", ind.Violation)
		}
	}
}

func TestDeadPartitionsMarked(t *testing.T) {
	// CONSTR's feasible f1 range is [0.39, 1] (f1 = x1 >= 0.39 needed for
	// g1, g2): partitions covering f1 < 0.39 can never hold feasible
	// points and must be discarded after phase I.
	e, _ := runOK(t, benchfn.Constr(), search.Options{
		PopSize: 60,
		Seed:    5,
		Extra: &Params{
			Partitions:         10,
			PartitionObjective: 0,
			PartitionLo:        0.1,
			PartitionHi:        1.0,
			GentMax:            25,
			Span:               30,
		},
	})
	if len(e.dead) != 10 {
		t.Fatalf("liveness flags length %d", len(e.dead))
	}
	// CONSTR is feasible only for f1 = x1 >= 7/18 ≈ 0.389: partition 0
	// ([0.1, 0.19)) can never hold a feasible point and must die; the top
	// partition ([0.91, 1.0]) is comfortably feasible and must live.
	if !e.dead[0] {
		t.Fatal("partition 0 covers an infeasible region and should be discarded")
	}
	if e.dead[9] {
		t.Fatal("the top partition is feasible and must stay live")
	}
}

func TestRunLocalOnlyKeepsDiversity(t *testing.T) {
	// On ZDT benchmarks the partition-local fronts are slices of the global
	// front, so local-only competition converges fine; its §4.3 weakness
	// (slow global-front advancement) only manifests on the circuit
	// problem and is demonstrated in the experiment harness. Here we check
	// the §4.3 strength: local-only preserves spread, and mixing in global
	// competition does not lose convergence.
	prob := benchfn.ZDT1(8)
	ref := hypervolume.Point2{X: 1.1, Y: 10}
	hv := func(front ga.Population) float64 {
		pts := make([]hypervolume.Point2, 0, len(front))
		for _, ind := range front {
			pts = append(pts, hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]})
		}
		return hypervolume.RefPoint2D(pts, ref)
	}
	localOpts := zdtOptions(60, 6)
	localOpts.Generations = 100
	localOpts.Extra.(*Params).LocalOnly = true
	_, local := runOK(t, prob, localOpts)
	_, full := runOK(t, prob, zdtOptions(60, 6))
	if len(local.Front) == 0 {
		t.Fatal("local-only produced empty front")
	}
	lo, hi := 1.0, 0.0
	for _, ind := range local.Front {
		lo = math.Min(lo, ind.Objectives[0])
		hi = math.Max(hi, ind.Objectives[0])
	}
	if hi-lo < 0.5 {
		t.Fatalf("local-only lost diversity: extent %g", hi-lo)
	}
	if hv(full.Front) < 0.95*hv(local.Front) {
		t.Fatalf("mixed competition lost convergence: %g vs %g",
			hv(full.Front), hv(local.Front))
	}
}

func TestEngineRegrid(t *testing.T) {
	e := initOK(t, benchfn.ZDT1(6), zdtOptions(40, 8))
	if e.Grid().M != 8 {
		t.Fatal("initial grid")
	}
	stepsOK(t, e, true, 5)
	e.regrid(3)
	if e.Grid().M != 3 {
		t.Fatal("regrid did not take")
	}
	for _, ind := range e.Population() {
		if ind.Partition < 0 || ind.Partition >= 3 {
			t.Fatalf("individual in partition %d after regrid to 3", ind.Partition)
		}
	}
	stepsOK(t, e, false, 10)
	if len(e.Population()) != 40 {
		t.Fatalf("population size %d after regrid+phaseII", len(e.Population()))
	}
}

func TestFrontIsGloballyNondominated(t *testing.T) {
	_, res := runOK(t, benchfn.ZDT3(8), zdtOptions(50, 5))
	front := res.Front
	for i := range front {
		for j := range front {
			if i == j {
				continue
			}
			a, b := front[i].Point(), front[j].Point()
			if dominates(a.Obj, b.Obj) && a.Vio == 0 && b.Vio == 0 {
				t.Fatalf("front contains dominated pair: %v dominates %v", a.Obj, b.Obj)
			}
		}
	}
}

func dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

func TestConfigNormalization(t *testing.T) {
	var p Params
	p.normalize(2)
	if p.Partitions != 8 || p.GentMax != DefaultGentMax {
		t.Fatalf("defaults: %+v", p)
	}
	if p.Span != 0 {
		t.Fatalf("span must stay 0 (derived), got %d", p.Span)
	}
	if p.Shape == nil {
		t.Fatal("shape must default")
	}
	// An out-of-range partition objective clamps to the last objective.
	bad := Params{PartitionObjective: 7}
	bad.normalize(2)
	if bad.PartitionObjective != 1 {
		t.Fatalf("out-of-range partition objective should clamp to 1, got %d",
			bad.PartitionObjective)
	}
}

func TestObserverSeesBothPhases(t *testing.T) {
	gens := 0
	opts := zdtOptions(30, 4)
	p := opts.Extra.(*Params)
	p.GentMax, p.Span = 5, 20
	p.PartitionLo, p.PartitionHi = 0.1, 1.0
	_, res := runOK(t, benchfn.Constr(), opts, search.ObserverFunc(func(f *search.Frame) { gens = f.Gen }))
	if gens != res.Generations {
		t.Fatalf("observer saw %d generations, result says %d", gens, res.Generations)
	}
	if res.Generations < 20 {
		t.Fatalf("expected at least span iterations, got %d", res.Generations)
	}
}

func TestInitialPopulationSeeding(t *testing.T) {
	seedPop := make(ga.Population, 5)
	for i := range seedPop {
		seedPop[i] = &ga.Individual{X: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}}
	}
	opts := zdtOptions(20, 4)
	opts.Initial = seedPop
	_, res := runOK(t, benchfn.ZDT1(6), opts)
	if len(res.Final) != 20 {
		t.Fatalf("final size %d", len(res.Final))
	}
}

// degenerateProblem returns identical objectives for every input — the
// whole population lands in one partition and every point ties.
type degenerateProblem struct{}

func (degenerateProblem) Name() string        { return "degenerate" }
func (degenerateProblem) NumVars() int        { return 3 }
func (degenerateProblem) NumObjectives() int  { return 2 }
func (degenerateProblem) NumConstraints() int { return 0 }
func (degenerateProblem) Bounds() ([]float64, []float64) {
	return []float64{0, 0, 0}, []float64{1, 1, 1}
}
func (degenerateProblem) Evaluate(x []float64) objective.Result {
	return objective.Result{Objectives: []float64{0.5, 0.5}}
}

func TestDegenerateProblemDoesNotPanic(t *testing.T) {
	_, res := runOK(t, degenerateProblem{}, zdtOptions(30, 6))
	if len(res.Final) != 30 {
		t.Fatalf("population size %d", len(res.Final))
	}
	if len(res.Front) == 0 {
		t.Fatal("even a degenerate problem has a (single-point) front")
	}
}

// hostileProblem is infeasible everywhere: phase I can never cover the
// partitions, the fallback must keep at least one partition alive, and the
// run must complete returning least-violation individuals.
type hostileProblem struct{}

func (hostileProblem) Name() string        { return "hostile" }
func (hostileProblem) NumVars() int        { return 2 }
func (hostileProblem) NumObjectives() int  { return 2 }
func (hostileProblem) NumConstraints() int { return 1 }
func (hostileProblem) Bounds() ([]float64, []float64) {
	return []float64{0, 0}, []float64{1, 1}
}
func (hostileProblem) Evaluate(x []float64) objective.Result {
	return objective.Result{
		Objectives: []float64{x[0], x[1]},
		Violations: []float64{1 + x[0]}, // never feasible
	}
}

func TestFullyInfeasibleProblemSurvives(t *testing.T) {
	opts := zdtOptions(24, 4)
	p := opts.Extra.(*Params)
	p.GentMax, p.Span = 8, 12
	e, res := runOK(t, hostileProblem{}, opts)
	if len(res.Final) != 24 {
		t.Fatalf("population size %d", len(res.Final))
	}
	live := 0
	for _, dead := range e.dead {
		if !dead {
			live++
		}
	}
	if live == 0 {
		t.Fatal("the all-dead fallback must keep at least one partition alive")
	}
	if res.Generations != 8+12 {
		t.Fatalf("generations %d, want 20", res.Generations)
	}
}

func TestEvaluationBudget(t *testing.T) {
	// Evaluations = initial pop + one offspring population per iteration.
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	opts := zdtOptions(30, 4)
	p := opts.Extra.(*Params)
	p.GentMax, p.Span = 10, 15
	_, res := runOK(t, cnt, opts)
	want := int64(30 + 30*res.Generations)
	if cnt.Count() != want {
		t.Fatalf("evaluations = %d, want %d (gens=%d)", cnt.Count(), want, res.Generations)
	}
}

// runOK drives a fresh engine through search.Run, and initOK only
// initializes one, with faults fatal: the fixtures here never fault, so any
// returned error is a regression.
func runOK(t *testing.T, prob objective.Problem, opts search.Options, obs ...search.Observer) (*Engine, *search.Result) {
	t.Helper()
	e := new(Engine)
	res, err := search.Run(context.Background(), e, prob, opts, obs...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e, res
}

func initOK(t *testing.T, prob objective.Problem, opts search.Options) *Engine {
	t.Helper()
	e := new(Engine)
	if err := e.Init(prob, opts); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return e
}

// stepsOK runs n iterations, pure-local or mixed, at annealing positions
// 0..n-1 of an n-iteration span.
func stepsOK(t *testing.T, e *Engine, pureLocal bool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.iterate(i, n, pureLocal); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
