package ga

import (
	"math"
	"testing"
	"testing/quick"

	"sacga/internal/benchfn"
	"sacga/internal/objective"
	"sacga/internal/rng"
)

// evaluate runs TryEvaluateWith on the shared pool over a fixture that
// never faults, so a returned error is a regression.
func evaluate(pop Population, prob objective.Problem, workers int) {
	if err := pop.TryEvaluateWith(prob, nil, workers); err != nil {
		panic(err)
	}
}

func bounds(n int) ([]float64, []float64) {
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = -2, 3
	}
	return lo, hi
}

func TestNewRandomWithinBounds(t *testing.T) {
	s := rng.New(1)
	lo, hi := bounds(8)
	for i := 0; i < 200; i++ {
		ind := NewRandom(s, lo, hi)
		for k, v := range ind.X {
			if v < lo[k] || v >= hi[k] {
				t.Fatalf("gene %d out of bounds: %g", k, v)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	ind := &Individual{X: []float64{1, 2}, Objectives: []float64{3}, Violation: 0.5, Rank: 2}
	c := ind.Clone()
	c.X[0] = 99
	c.Objectives[0] = 99
	if ind.X[0] != 1 || ind.Objectives[0] != 3 {
		t.Fatal("Clone shares slices with original")
	}
	if c.Violation != 0.5 || c.Rank != 2 {
		t.Fatal("Clone lost scalar fields")
	}
}

// Property: SBX children stay inside bounds for random parents.
func TestSBXRespectsBounds(t *testing.T) {
	s := rng.New(3)
	lo, hi := bounds(6)
	f := func(seed int64) bool {
		st := rng.New(seed)
		p1 := NewRandom(st, lo, hi)
		p2 := NewRandom(st, lo, hi)
		c1, c2 := &Individual{}, &Individual{}
		CrossoverInto(s, p1, p2, c1, c2, lo, hi)
		for k := range c1.X {
			if c1.X[k] < lo[k] || c1.X[k] > hi[k] {
				return false
			}
			if c2.X[k] < lo[k] || c2.X[k] > hi[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverClearsEvaluation(t *testing.T) {
	s := rng.New(5)
	lo, hi := bounds(3)
	p1 := NewRandom(s, lo, hi)
	p2 := NewRandom(s, lo, hi)
	p1.Objectives = []float64{1, 2}
	p2.Objectives = []float64{3, 4}
	// Recycled buffers still hold an earlier child's evaluation.
	c1 := &Individual{Objectives: []float64{5, 6}}
	c2 := &Individual{Objectives: []float64{7, 8}}
	CrossoverInto(s, p1, p2, c1, c2, lo, hi)
	if len(c1.Objectives) != 0 || len(c2.Objectives) != 0 {
		t.Fatal("children carry stale objective values")
	}
}

// TestPolynomialMutationRespectsBounds mutates every gene (rate 1, where
// Mutate uses 1/numVars) and requires each to stay inside its bounds.
func TestPolynomialMutationRespectsBounds(t *testing.T) {
	s := rng.New(7)
	lo, hi := bounds(10)
	for trial := 0; trial < 300; trial++ {
		ind := NewRandom(s, lo, hi)
		polyMutate(s, ind.X, lo, hi, 1)
		for k, v := range ind.X {
			if v < lo[k] || v > hi[k] {
				t.Fatalf("mutated gene %d out of bounds: %g", k, v)
			}
		}
	}
}

func TestSBXMeanPreservation(t *testing.T) {
	// SBX is mean-preserving per variable when crossover fires on it; with
	// many samples the child mean approaches the parent mean. The operator
	// is applied to every pair, where CrossoverInto applies it with
	// probability crossoverProb.
	s := rng.New(11)
	lo := []float64{0}
	hi := []float64{10}
	sum := 0.0
	const trials = 20000
	for i := 0; i < trials; i++ {
		x1, x2 := []float64{3}, []float64{7}
		sbxCrossover(s, x1, x2, lo, hi)
		sum += x1[0] + x2[0]
	}
	mean := sum / (2 * trials)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("SBX child mean %g, want ~5", mean)
	}
}

func TestEvaluateCachesResults(t *testing.T) {
	prob := benchfn.ZDT1(5)
	s := rng.New(13)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 10, lo, hi)
	evaluate(pop, prob, 1)
	for _, ind := range pop {
		if len(ind.Objectives) != 2 {
			t.Fatal("objectives not cached")
		}
		if ind.Violation != 0 {
			t.Fatal("unconstrained problem must yield zero violation")
		}
	}
}

func TestAssignRanksAndCrowding(t *testing.T) {
	pop := Population{
		{X: []float64{0}, Objectives: []float64{1, 5}},
		{X: []float64{0}, Objectives: []float64{2, 2}},
		{X: []float64{0}, Objectives: []float64{3, 3}}, // dominated by (2,2)
	}
	pop.AssignRanksAndCrowding()
	if pop[0].Rank != 0 || pop[1].Rank != 0 {
		t.Fatalf("nondominated points must be rank 0: %d %d", pop[0].Rank, pop[1].Rank)
	}
	if pop[2].Rank != 1 {
		t.Fatalf("dominated point must be rank 1, got %d", pop[2].Rank)
	}
	if !math.IsInf(pop[0].Crowding, 1) {
		t.Fatal("front extreme should have infinite crowding")
	}
}

func TestFirstFrontFeasiblePreferred(t *testing.T) {
	pop := Population{
		{X: []float64{0}, Objectives: []float64{0.1, 0.1}, Violation: 5},
		{X: []float64{0}, Objectives: []float64{9, 9}, Violation: 0},
	}
	front := pop.FirstFront()
	if len(front) != 1 || front[0].Violation != 0 {
		t.Fatal("feasible point must dominate infeasible regardless of objectives")
	}
}

func TestTournamentSelectPrefersBetterRank(t *testing.T) {
	s := rng.New(17)
	good := &Individual{Rank: 0, Crowding: 1}
	bad := &Individual{Rank: 3, Crowding: 1}
	pop := Population{good, bad}
	wins := 0
	for i := 0; i < 2000; i++ {
		if TournamentSelect(s, pop) == good {
			wins++
		}
	}
	// good wins every mixed tournament plus half of the (good,good) draws:
	// expected frequency 0.75.
	if f := float64(wins) / 2000; f < 0.70 || f > 0.80 {
		t.Fatalf("tournament win frequency for better rank = %g, want ~0.75", f)
	}
}

func TestRankSelectPressure(t *testing.T) {
	s := rng.New(19)
	pop := make(Population, 10)
	for i := range pop {
		pop[i] = &Individual{Rank: i}
	}
	var rs RankSelector
	rs.Reset(pop, 2.0)
	counts := make(map[int]int)
	for i := 0; i < 20000; i++ {
		counts[rs.Pick(s).Rank]++
	}
	if counts[0] <= counts[9]*3 {
		t.Fatalf("linear ranking with pressure 2 should strongly prefer best: best=%d worst=%d",
			counts[0], counts[9])
	}
}

func TestRankSelectorMatchesDistribution(t *testing.T) {
	s := rng.New(23)
	pop := make(Population, 20)
	for i := range pop {
		pop[i] = &Individual{Rank: i}
	}
	var sel RankSelector
	sel.Reset(pop, 1.8)
	counts := make([]int, 20)
	for i := 0; i < 40000; i++ {
		counts[sel.Pick(s).Rank]++
	}
	// Monotone non-increasing counts (allowing sampling noise).
	for i := 1; i < 20; i++ {
		if float64(counts[i]) > float64(counts[i-1])*1.25+50 {
			t.Fatalf("rank %d picked more than rank %d: %v", i, i-1, counts)
		}
	}
	// With pressure 1.8 the worst individual keeps weight 0.2 and must
	// still be selectable. (Pressure exactly 2 gives it weight 0.)
	if counts[19] == 0 {
		t.Fatal("worst individual should still be selectable at pressure 1.8")
	}
}

func TestTruncateByCrowdedComparison(t *testing.T) {
	pop := Population{
		{Rank: 1, Crowding: 0.5},
		{Rank: 0, Crowding: 0.1},
		{Rank: 0, Crowding: 0.9},
		{Rank: 2, Crowding: 9.9},
	}
	out := TruncateByCrowdedComparison(pop, 2)
	if len(out) != 2 {
		t.Fatalf("len=%d", len(out))
	}
	if out[0].Rank != 0 || out[1].Rank != 0 {
		t.Fatalf("expected the two rank-0 members, got ranks %d,%d", out[0].Rank, out[1].Rank)
	}
	if out[0].Crowding < out[1].Crowding {
		t.Fatal("within a rank, larger crowding first")
	}
	if got := TruncateByCrowdedComparison(pop, 99); len(got) != 4 {
		t.Fatalf("oversized n should return whole population, got %d", len(got))
	}
}

func TestEvaluateParallelMatchesSequential(t *testing.T) {
	prob := benchfn.ZDT1(8)
	s := rng.New(31)
	lo, hi := prob.Bounds()
	seq := NewRandomPopulation(s, 64, lo, hi)
	par := seq.Clone()
	evaluate(seq, prob, 1)
	evaluate(par, prob, 8)
	for i := range seq {
		for k := range seq[i].Objectives {
			if seq[i].Objectives[k] != par[i].Objectives[k] {
				t.Fatal("parallel evaluation diverged from sequential")
			}
		}
	}
}

func TestEvaluateParallelCounterExact(t *testing.T) {
	cnt := objective.NewCounter(benchfn.ZDT1(6))
	s := rng.New(33)
	lo, hi := cnt.Bounds()
	pop := NewRandomPopulation(s, 100, lo, hi)
	evaluate(pop, cnt, 16)
	if cnt.Count() != 100 {
		t.Fatalf("atomic counter lost updates: %d", cnt.Count())
	}
}

func TestEvaluateParallelSmallPopulationFallback(t *testing.T) {
	prob := benchfn.ZDT1(5)
	s := rng.New(37)
	lo, hi := prob.Bounds()
	pop := NewRandomPopulation(s, 3, lo, hi)
	evaluate(pop, prob, 8) // must not deadlock or panic
	for _, ind := range pop {
		if len(ind.Objectives) != 2 {
			t.Fatal("fallback path skipped evaluation")
		}
	}
}

func TestPopulationCloneIndependent(t *testing.T) {
	s := rng.New(29)
	lo, hi := bounds(4)
	pop := NewRandomPopulation(s, 5, lo, hi)
	cl := pop.Clone()
	cl[0].X[0] = 1234
	if pop[0].X[0] == 1234 {
		t.Fatal("Clone aliases the original individuals")
	}
	// The copies are carved from shared blocks: growing one must
	// reallocate it, not overwrite the next copy's genes, and the
	// unevaluated objectives stay nil.
	next := cl[1].X[0]
	cl[0].X = append(cl[0].X, -1)
	if cl[1].X[0] != next {
		t.Fatal("growing one copy's genes overwrote its neighbour's")
	}
	if cl[0].Objectives != nil {
		t.Fatal("Clone turned nil objectives into an empty slice")
	}
}

func TestFeasibleCount(t *testing.T) {
	pop := Population{
		{Violation: 0}, {Violation: 1}, {Violation: 0},
	}
	if got := pop.FeasibleCount(); got != 2 {
		t.Fatalf("FeasibleCount = %d, want 2", got)
	}
}
