package mesacga

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

// zdtOptions runs a four-phase schedule over ZDT1's f1 axis: phase I capped
// at 10 iterations, then a pinned 25-iteration span per phase.
func zdtOptions() search.Options {
	return search.Options{
		PopSize: 50,
		Seed:    1,
		Extra: &Params{
			Schedule:           []int{8, 4, 2, 1},
			PartitionObjective: 0,
			PartitionLo:        0,
			PartitionHi:        1,
			GentMax:            10,
			Span:               25,
		},
	}
}

func TestRunZDT1(t *testing.T) {
	e, res := runOK(t, benchfn.ZDT1(8), zdtOptions())
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(e.PhaseFronts()) != 4 {
		t.Fatalf("expected 4 phase fronts, got %d", len(e.PhaseFronts()))
	}
	if res.Generations != e.GentUsed()+4*25 {
		t.Fatalf("generation accounting: %d vs gent %d + 100", res.Generations, e.GentUsed())
	}
}

func TestDefaultScheduleIsPaper(t *testing.T) {
	want := []int{20, 13, 8, 5, 3, 2, 1}
	got := DefaultSchedule()
	if len(got) != len(want) {
		t.Fatalf("schedule %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want the paper's %v", got, want)
		}
	}
}

func TestEmptyScheduleDefaults(t *testing.T) {
	opts := zdtOptions()
	p := opts.Extra.(*Params)
	p.Schedule, p.Span = nil, 5
	e, _ := runOK(t, benchfn.ZDT1(6), opts)
	if len(e.PhaseFronts()) != 7 {
		t.Fatalf("nil schedule should use the paper's 7 phases, got %d", len(e.PhaseFronts()))
	}
}

func TestPhaseFrontsGenerallyImprove(t *testing.T) {
	// Fig. 10's qualitative content: the hypervolume improves (decreases
	// toward the ideal) across phases. On ZDT1 we use the reference-point
	// hypervolume (higher better) and demand the last phase beats the
	// first.
	e, _ := runOK(t, benchfn.ZDT1(8), zdtOptions())
	ref := hypervolume.Point2{X: 1.1, Y: 10}
	hv := func(front ga.Population) float64 {
		pts := make([]hypervolume.Point2, 0, len(front))
		for _, ind := range front {
			pts = append(pts, hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]})
		}
		return hypervolume.RefPoint2D(pts, ref)
	}
	fronts := e.PhaseFronts()
	first := hv(fronts[0])
	last := hv(fronts[len(fronts)-1])
	if last <= first {
		t.Fatalf("front should improve across phases: first %g last %g", first, last)
	}
}

func TestTotalBudgetMode(t *testing.T) {
	// With Span unset, the executed iteration count must land within one
	// schedule-length of Options.Generations, regardless of when phase I
	// terminates.
	opts := zdtOptions()
	p := opts.Extra.(*Params)
	p.Span = 0
	opts.Generations = 97
	e, res := runOK(t, benchfn.ZDT1(6), opts)
	if res.Generations > 97 || res.Generations < 97-len(p.Schedule) {
		t.Fatalf("generations %d should approach the 97 budget (gent %d)",
			res.Generations, e.GentUsed())
	}
	// Evaluation accounting confirms it end to end.
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	_, res = runOK(t, cnt, opts)
	want := int64(opts.PopSize) * int64(1+res.Generations)
	if cnt.Count() != want {
		t.Fatalf("evaluations %d, want %d", cnt.Count(), want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, a := runOK(t, benchfn.ZDT1(6), zdtOptions())
	_, b := runOK(t, benchfn.ZDT1(6), zdtOptions())
	for i := range a.Final {
		for k := range a.Final[i].X {
			if a.Final[i].X[k] != b.Final[i].X[k] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func TestFinalPhaseSinglePartitionConverges(t *testing.T) {
	// With the final phase a single partition, MESACGA degenerates to a
	// global GA at the end; the front should be close to ZDT1's optimum.
	_, res := runOK(t, benchfn.ZDT1(8), zdtOptions())
	worst := 0.0
	for _, ind := range res.Front {
		gap := ind.Objectives[1] - (1 - math.Sqrt(ind.Objectives[0]))
		worst = math.Max(worst, gap)
	}
	if worst > 0.6 {
		t.Fatalf("front too far from optimum after final global phase: %g", worst)
	}
}

func TestPhaseFrontsAreDeepCopies(t *testing.T) {
	e, res := runOK(t, benchfn.ZDT1(6), zdtOptions())
	// Mutating a phase front must not corrupt the final population.
	for _, front := range e.PhaseFronts() {
		for _, ind := range front {
			ind.X[0] = 999
		}
	}
	for _, ind := range res.Final {
		if ind.X[0] == 999 {
			t.Fatal("phase fronts alias the live population")
		}
	}
}

// runOK drives a fresh engine through search.Run with faults fatal: the
// fixtures here never fault, so any returned error is a regression.
func runOK(t *testing.T, prob objective.Problem, opts search.Options) (*Engine, *search.Result) {
	t.Helper()
	e := new(Engine)
	res, err := search.Run(context.Background(), e, prob, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e, res
}
