package search_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sacga/internal/ga"
	"sacga/internal/mesacga"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// popDigest is the golden-front fingerprint of a population: the first 16
// hex digits of a sha256 over little-endian uint64s — len(pop), then per
// individual in order len(X), each gene's bits, len(Objectives), each
// objective's bits, the Violation bits, the Rank and the Crowding bits.
func popDigest(pop ga.Population) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(pop)))
	for _, ind := range pop {
		put(uint64(len(ind.X)))
		for _, x := range ind.X {
			put(math.Float64bits(x))
		}
		put(uint64(len(ind.Objectives)))
		for _, o := range ind.Objectives {
			put(math.Float64bits(o))
		}
		put(math.Float64bits(ind.Violation))
		put(uint64(ind.Rank))
		put(math.Float64bits(ind.Crowding))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenSACGA is the partition grid the golden sacga, relay and portfolio
// cases share: 4 partitions of objective 0 over [0.1, 1] on Constr.
func goldenSACGA(gentMax, span int) *sacga.Params {
	return &sacga.Params{
		Partitions: 4, PartitionObjective: 0,
		PartitionLo: 0.1, PartitionHi: 1,
		GentMax: gentMax, Span: span,
	}
}

func goldenMESACGA(span int) *mesacga.Params {
	return &mesacga.Params{
		Schedule: []int{4, 2, 1}, PartitionObjective: 0,
		PartitionLo: 0.1, PartitionHi: 1,
		GentMax: 4, Span: span,
	}
}

// TestGoldenFronts pins the final population of every registered engine on
// fixed seeds at a small budget. The other determinism suites compare the
// engines with themselves (resumed against uninterrupted, pooled against
// sequential); these digests catch a change that keeps all of those equal
// and still alters the search. A deliberate behaviour change updates the
// digest it moves, on purpose.
func TestGoldenFronts(t *testing.T) {
	cases := []struct {
		name, algo string
		prob       func() objective.Problem
		opts       search.Options
		want       string
	}{
		{"nsga2", "nsga2", testProblem,
			search.Options{PopSize: 20, Generations: 12, Seed: 3},
			"4a41b924938ffc89"},
		{"sacga-pinned", "sacga", constrProblem,
			search.Options{PopSize: 24, Generations: 13, Seed: 5, Extra: goldenSACGA(4, 9)},
			"f96292762992e219"},
		{"sacga-derived", "sacga", constrProblem,
			search.Options{PopSize: 24, Generations: 20, Seed: 5, Extra: goldenSACGA(6, 0)},
			"7dfc6b9e99d3e9b2"},
		{"sacga-local", "sacga", testProblem,
			search.Options{PopSize: 20, Generations: 10, Seed: 9, Extra: &sacga.Params{
				Partitions: 4, PartitionObjective: 0, PartitionLo: 0, PartitionHi: 1, LocalOnly: true,
			}},
			"2ab63a6ef2b62903"},
		{"mesacga-pinned", "mesacga", constrProblem,
			search.Options{PopSize: 20, Generations: 16, Seed: 7, Extra: goldenMESACGA(3)},
			"4f7be1297e2f94b1"},
		{"mesacga-derived", "mesacga", constrProblem,
			search.Options{PopSize: 20, Generations: 25, Seed: 7, Extra: goldenMESACGA(0)},
			"df20649431580547"},
		{"parallel-islands", sched.NameParallelIslands, testProblem,
			search.Options{PopSize: 40, Generations: 10, Seed: 13, Extra: &sched.IslandsParams{
				Replicas: 3, MigrationEvery: 3, StepWorkers: 1,
			}},
			"8891da72051a2f3c"},
		// MaxEvals stops this ensemble at epoch 6 of 10, a migration epoch
		// whose exchange the stop skips: the digest pins the budget rule.
		{"parallel-islands-budget", sched.NameParallelIslands, testProblem,
			search.Options{PopSize: 40, Generations: 10, Seed: 13, MaxEvals: 270, Extra: &sched.IslandsParams{
				Replicas: 3, MigrationEvery: 3, StepWorkers: 1,
			}},
			"ed09734e20f6dd52"},
		{"relay", sched.NameRelay, constrProblem,
			search.Options{PopSize: 24, Generations: 16, Seed: 17, Extra: &sched.RelayParams{Legs: []sched.Leg{
				{Algo: "nsga2", Generations: 4},
				{Algo: "sacga", Extra: goldenSACGA(4, 0)},
			}}},
			"966071afeabb3071"},
		// MaxEvals stops this relay at generation 9 of 16, inside its
		// second leg: the digest pins the budget rule across a handoff.
		{"relay-budget", sched.NameRelay, constrProblem,
			search.Options{PopSize: 24, Generations: 16, Seed: 17, MaxEvals: 250, Extra: &sched.RelayParams{Legs: []sched.Leg{
				{Algo: "nsga2", Generations: 4},
				{Algo: "sacga", Extra: goldenSACGA(4, 0)},
			}}},
			"1f9d52ff7b7a3ed0"},
		{"portfolio", sched.NamePortfolio, constrProblem,
			search.Options{PopSize: 24, Generations: 12, Seed: 19, Extra: &sched.PortfolioParams{Members: []sched.Member{
				{Algo: "nsga2"},
				{Algo: "sacga", Extra: goldenSACGA(4, 0)},
			}}},
			"fda45f57981d692f"},
		// MaxEvals stops this race at epoch 5: the digest pins the budget rule.
		{"portfolio-budget", sched.NamePortfolio, constrProblem,
			search.Options{PopSize: 24, Generations: 12, Seed: 19, MaxEvals: 500, Extra: &sched.PortfolioParams{Members: []sched.Member{
				{Algo: "nsga2"},
				{Algo: "sacga", Extra: goldenSACGA(4, 0)},
			}}},
			"1c3c9f914431158b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			res, err := search.Run(context.Background(), eng, tc.prob(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := popDigest(res.Final); got != tc.want {
				t.Fatalf("final population digest %s, want %s", got, tc.want)
			}
		})
	}
}
