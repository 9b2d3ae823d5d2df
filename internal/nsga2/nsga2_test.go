package nsga2

import (
	"context"
	"math"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/search"
)

func TestRunZDT1Converges(t *testing.T) {
	prob := objective.NewCounter(benchfn.ZDT1(10))
	res := runOK(t, prob, search.Options{PopSize: 60, Generations: 120, Seed: 1})
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	// All front points should be near f2 = 1 - sqrt(f1).
	worst := 0.0
	for _, ind := range res.Front {
		f1, f2 := ind.Objectives[0], ind.Objectives[1]
		gap := f2 - (1 - math.Sqrt(f1))
		if gap > worst {
			worst = gap
		}
	}
	if worst > 0.25 {
		t.Fatalf("front too far from true ZDT1 front: worst gap %g", worst)
	}
	wantEvals := int64(60 + 60*120)
	if prob.Count() != wantEvals {
		t.Fatalf("evaluations = %d, want %d", prob.Count(), wantEvals)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a := runOK(t, benchfn.ZDT1(6), search.Options{PopSize: 20, Generations: 10, Seed: 7})
	b := runOK(t, benchfn.ZDT1(6), search.Options{PopSize: 20, Generations: 10, Seed: 7})
	if len(a.Final) != len(b.Final) {
		t.Fatal("population sizes differ")
	}
	for i := range a.Final {
		for k := range a.Final[i].X {
			if a.Final[i].X[k] != b.Final[i].X[k] {
				t.Fatal("same seed produced different runs")
			}
		}
	}
	c := runOK(t, benchfn.ZDT1(6), search.Options{PopSize: 20, Generations: 10, Seed: 8})
	same := true
	for i := range a.Final {
		for k := range a.Final[i].X {
			if a.Final[i].X[k] != c.Final[i].X[k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRunConstrainedFeasibleFront(t *testing.T) {
	res := runOK(t, benchfn.Constr(), search.Options{PopSize: 60, Generations: 80, Seed: 3})
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, ind := range res.Front {
		if !ind.Feasible() {
			t.Fatalf("front contains infeasible point with violation %g", ind.Violation)
		}
	}
}

func TestHypervolumeImprovesOverGenerations(t *testing.T) {
	ref := hypervolume.Point2{X: 2, Y: 10}
	var early, late float64
	obs := search.ObserverFunc(func(f *search.Frame) {
		front := f.Pop.FirstFront()
		pts := make([]hypervolume.Point2, len(front))
		for i, ind := range front {
			pts[i] = hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]}
		}
		hv := hypervolume.RefPoint2D(pts, ref)
		if f.Gen == 6 {
			early = hv
		}
		if f.Gen == 80 {
			late = hv
		}
	})
	runOK(t, benchfn.ZDT1(10), search.Options{PopSize: 40, Generations: 80, Seed: 5}, obs)
	if late <= early {
		t.Fatalf("hypervolume did not improve: early %g late %g", early, late)
	}
}

func TestConfigNormalization(t *testing.T) {
	res := runOK(t, benchfn.Schaffer(), search.Options{PopSize: 11, Generations: 5, Seed: 1})
	if len(res.Final) != 12 {
		t.Fatalf("odd pop size should round up to 12, got %d", len(res.Final))
	}
}

func TestInitialPopulationSeeding(t *testing.T) {
	// Seed the entire population with copies of a known point; generation 0
	// children must derive from it.
	seed := make(ga.Population, 8)
	for i := range seed {
		seed[i] = &ga.Individual{X: []float64{1.0}}
	}
	res := runOK(t, benchfn.Schaffer(), search.Options{PopSize: 8, Generations: 1, Seed: 2, Initial: seed})
	if len(res.Final) != 8 {
		t.Fatalf("final size %d", len(res.Final))
	}
}

func TestMakeChildrenCount(t *testing.T) {
	prob := benchfn.ZDT1(5)
	lo, hi := prob.Bounds()
	res := runOK(t, prob, search.Options{PopSize: 10, Generations: 1, Seed: 9})
	kids := MakeChildrenInto(rng.New(4), res.Final, lo, hi, 7, &ga.Arena{}, nil)
	if len(kids) != 7 {
		t.Fatalf("MakeChildrenInto returned %d, want 7", len(kids))
	}
}

// runOK is search.Run on a fresh engine with faults fatal: the fixtures
// here never fault, so any returned error is a regression.
func runOK(t *testing.T, prob objective.Problem, opts search.Options, obs ...search.Observer) *search.Result {
	t.Helper()
	res, err := search.Run(context.Background(), new(Engine), prob, opts, obs...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}
