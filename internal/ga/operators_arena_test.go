package ga

import (
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/rng"
)

// TestCrossoverIntoMatchesCrossover checks that a crossover into recycled
// arena buffers, which still hold an earlier child's genes, evaluation and
// age, gives exactly the children a crossover into fresh buffers gives.
func TestCrossoverIntoMatchesCrossover(t *testing.T) {
	prob := benchfn.Constr()
	lo, hi := prob.Bounds()
	s1, s2 := rng.New(17), rng.New(17)
	pop := rankedPopulation(17, 20)
	arena := &Arena{}
	for trial := 0; trial < 50; trial++ {
		a, b := pop[trial%len(pop)], pop[(trial*7+3)%len(pop)]
		w1, w2 := &Individual{}, &Individual{}
		CrossoverInto(s1, a, b, w1, w2, lo, hi)
		c1, c2 := arena.Offspring(), arena.Offspring()
		CrossoverInto(s2, a, b, c1, c2, lo, hi)
		for i := range w1.X {
			if w1.X[i] != c1.X[i] || w2.X[i] != c2.X[i] {
				t.Fatalf("trial %d gene %d: arena crossover diverged", trial, i)
			}
		}
		if len(c1.Objectives) != 0 ||
			c1.Rank != a.Rank || c1.Violation != a.Violation {
			t.Fatalf("trial %d: child bookkeeping differs from Clone semantics", trial)
		}
		c1.Objectives = append(c1.Objectives, 1, 2)
		arena.Recycle(c1)
		arena.Recycle(c2)
	}
}

func TestArenaOffspringRecyclesBuffers(t *testing.T) {
	arena := &Arena{}
	a := arena.Offspring()
	a.X = append(a.X, 1, 2, 3)
	arena.Recycle(a)
	b := arena.Offspring()
	if b != a {
		t.Fatal("Offspring must reuse the recycled individual")
	}
	if arena.Offspring() == a {
		t.Fatal("an offspring buffer was handed out twice")
	}
}

func TestArenaTruncateRecycle(t *testing.T) {
	pop := rankedPopulation(23, 40)
	pop.AssignRanksAndCrowding()
	arena := &Arena{}
	want := arena.Truncate(pop, 15, nil)
	arena2 := &Arena{}
	got := arena2.TruncateRecycle(pop, 15, nil)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivor %d differs from Truncate", i)
		}
	}
	if len(arena2.free) != len(pop)-15 {
		t.Fatalf("recycled %d buffers, want %d", len(arena2.free), len(pop)-15)
	}
	// No survivor may sit in the free list.
	inFree := map[*Individual]bool{}
	for _, ind := range arena2.free {
		inFree[ind] = true
	}
	for _, ind := range got {
		if inFree[ind] {
			t.Fatal("a survivor was recycled")
		}
	}
}

func TestVariationSteadyStateZeroAlloc(t *testing.T) {
	prob := benchfn.Constr()
	lo, hi := prob.Bounds()
	pop := rankedPopulation(29, 30)
	pop.AssignRanksAndCrowding()
	arena := &Arena{}
	s := rng.New(31)
	// Warm the arena with enough buffers for one pairing.
	c1, c2 := arena.Offspring(), arena.Offspring()
	CrossoverInto(s, pop[0], pop[1], c1, c2, lo, hi)
	arena.Recycle(c1)
	arena.Recycle(c2)
	avg := testing.AllocsPerRun(50, func() {
		a := TournamentSelect(s, pop)
		b := TournamentSelect(s, pop)
		k1, k2 := arena.Offspring(), arena.Offspring()
		CrossoverInto(s, a, b, k1, k2, lo, hi)
		Mutate(s, k1, lo, hi)
		Mutate(s, k2, lo, hi)
		arena.Recycle(k1)
		arena.Recycle(k2)
	})
	if avg != 0 {
		t.Fatalf("arena variation allocates %.1f objects/run at steady state, want 0", avg)
	}
}
