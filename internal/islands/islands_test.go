package islands

import (
	"context"
	"math"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/objective"
	"sacga/internal/search"
)

func TestRunZDT1(t *testing.T) {
	res := runOK(t, benchfn.ZDT1(8), search.Options{
		Generations: 60, Seed: 1,
		Extra: &Params{Islands: 4, IslandSize: 20},
	})
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(res.Final) != 80 {
		t.Fatalf("pooled population %d, want 80", len(res.Final))
	}
	worst := 0.0
	for _, ind := range res.Front {
		gap := ind.Objectives[1] - (1 - math.Sqrt(ind.Objectives[0]))
		worst = math.Max(worst, gap)
	}
	if worst > 0.8 {
		t.Fatalf("front too far from optimum: %g", worst)
	}
}

func TestDeterministic(t *testing.T) {
	opts := search.Options{Generations: 15, Seed: 9, Extra: &Params{Islands: 3, IslandSize: 12}}
	a := runOK(t, benchfn.ZDT1(6), opts)
	b := runOK(t, benchfn.ZDT1(6), opts)
	for i := range a.Final {
		for k := range a.Final[i].X {
			if a.Final[i].X[k] != b.Final[i].X[k] {
				t.Fatal("same seed diverged")
			}
		}
	}
}

func TestIslandsEvolveIndependentlyWithoutMigration(t *testing.T) {
	// With migration disabled, islands are isolated runs; with migration
	// enabled, genetic material spreads. Compare the pooled fronts: the
	// migrating version should not be worse (on ZDT1 it converges at least
	// as well), and the runs must differ.
	iso := runOK(t, benchfn.ZDT1(8), search.Options{
		Generations: 40, Seed: 3,
		Extra: &Params{Islands: 4, IslandSize: 16, MigrationEvery: -1},
	})
	mig := runOK(t, benchfn.ZDT1(8), search.Options{
		Generations: 40, Seed: 3,
		Extra: &Params{Islands: 4, IslandSize: 16, MigrationEvery: 5},
	})
	same := true
	for i := range iso.Final {
		for k := range iso.Final[i].X {
			if iso.Final[i].X[k] != mig.Final[i].X[k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("migration had no effect at all")
	}
}

func TestMigrationPreservesPopulationSizes(t *testing.T) {
	obs := search.ObserverFunc(func(f *search.Frame) {
		if len(f.Pop) != 3*14 {
			t.Fatalf("pooled size %d at gen %d", len(f.Pop), f.Gen)
		}
	})
	runOK(t, benchfn.ZDT1(6), search.Options{
		Generations: 20, Seed: 4,
		Extra: &Params{Islands: 3, IslandSize: 14, MigrationEvery: 3, Migrants: 2},
	}, obs)
}

func TestConstrainedFeasibleFront(t *testing.T) {
	res := runOK(t, benchfn.Constr(), search.Options{
		Generations: 50, Seed: 5,
		Extra: &Params{Islands: 3, IslandSize: 20},
	})
	for _, ind := range res.Front {
		if !ind.Feasible() {
			t.Fatalf("infeasible front point: %g", ind.Violation)
		}
	}
}

func TestEvaluationBudget(t *testing.T) {
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	runOK(t, cnt, search.Options{Generations: 10, Seed: 6, Extra: &Params{Islands: 2, IslandSize: 10}})
	// init: 2*10; per generation: 2 islands × 10 children.
	want := int64(20 + 10*20)
	if cnt.Count() != want {
		t.Fatalf("evaluations = %d, want %d", cnt.Count(), want)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	// The default population of 100 over the default 4 islands gives 25
	// per island, rounded up to even.
	var p Params
	p.normalize(search.DefaultPopSize)
	if p.Islands != 4 || p.IslandSize != 26 || p.MigrationEvery != 10 {
		t.Fatalf("defaults: %+v", p)
	}
	// Odd island size rounds up; migrant count is capped.
	p = Params{IslandSize: 7, Migrants: 100}
	p.normalize(search.DefaultPopSize)
	if p.IslandSize != 8 {
		t.Fatalf("island size %d", p.IslandSize)
	}
	if p.Migrants > p.IslandSize/2 {
		t.Fatalf("migrants %d exceed half the island", p.Migrants)
	}
}

// runOK drives a fresh engine through search.Run with faults fatal: the
// fixtures here never fault, so any returned error is a regression.
func runOK(t *testing.T, prob objective.Problem, opts search.Options, obs ...search.Observer) *search.Result {
	t.Helper()
	res, err := search.Run(context.Background(), new(Engine), prob, opts, obs...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}
