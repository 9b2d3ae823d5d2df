package search_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// legacyGen is the generation each testdata/legacy checkpoint was saved at.
const legacyGen = 12

// legacyCases are the runs whose checkpoints testdata/legacy holds, one
// file per case, named after it. Each file is the run's checkpoint at
// generation legacyGen, written by search.SaveCheckpoint from a build
// whose engine snapshots held their populations as []IndividualSnap, a
// type since folded into ga.Population. Every population field's name is
// unchanged, and gob matches struct fields by name, so those files must
// still decode and resume.
func legacyCases() []struct {
	name, algo string
	prob       func() objective.Problem
	opts       search.Options
} {
	relayLegs := &sched.RelayParams{Legs: []sched.Leg{
		{Algo: "nsga2", Generations: 4},
		{Algo: "sacga", Extra: goldenSACGA(4, 0)},
	}}
	return []struct {
		name, algo string
		prob       func() objective.Problem
		opts       search.Options
	}{
		{"nsga2", "nsga2", testProblem, search.Options{PopSize: 12, Generations: 16, Seed: 3}},
		{"sacga", "sacga", constrProblem, search.Options{PopSize: 16, Generations: 16, Seed: 5, Extra: goldenSACGA(4, 0)}},
		{"mesacga", "mesacga", constrProblem, search.Options{PopSize: 16, Generations: 16, Seed: 7, Extra: goldenMESACGA(3)}},
		// At generation 12 the relay is in its second leg, so the file
		// carries the handed-off population as well, in a field this
		// build skips.
		{"relay", sched.NameRelay, constrProblem, search.Options{PopSize: 16, Generations: 16, Seed: 17, Extra: relayLegs}},
		{"parallel-islands", sched.NameParallelIslands, testProblem, search.Options{PopSize: 24, Generations: 16, Seed: 13, Extra: &sched.IslandsParams{
			Replicas: 2, MigrationEvery: 3,
		}}},
	}
}

// TestLegacyCheckpointsResume pins checkpoint compatibility across the
// snapshot population type: each legacy file resumes to the front and
// the evaluation count of the same run left uninterrupted.
func TestLegacyCheckpointsResume(t *testing.T) {
	for _, tc := range legacyCases() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "legacy", tc.name+".ckpt")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(raw, []byte("IndividualSnap")) {
				t.Fatalf("%s does not carry the legacy population type", path)
			}
			cp, err := search.LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Gen != legacyGen {
				t.Fatalf("%s is at generation %d, want %d", path, cp.Gen, legacyGen)
			}

			ref, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			want, err := search.Run(context.Background(), ref, tc.prob(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := search.Resume(context.Background(), fresh, tc.prob(), tc.opts, cp)
			if err != nil {
				t.Fatal(err)
			}
			if got.Evals != want.Evals || got.Generations != want.Generations {
				t.Fatalf("resumed run: %d evals over %d generations, uninterrupted: %d over %d",
					got.Evals, got.Generations, want.Evals, want.Generations)
			}
			popsIdentical(t, "final", got.Final, want.Final)
			popsIdentical(t, "front", got.Front, want.Front)
		})
	}
}

// TestFinishedCheckpointsResume pins the end states of the phase machine:
// testdata/sacga-done.ckpt and mesacga-done.ckpt are legacyCases' sacga and
// mesacga runs checkpointed once Done, by a build whose SACGA snapshot
// ended at T == Span and whose MESACGA snapshot ended one phase past its
// schedule with T == 0. Each must resume as finished: no Step, and the
// generations, evaluations, final population and front of the run left
// uninterrupted.
func TestFinishedCheckpointsResume(t *testing.T) {
	for _, tc := range legacyCases() {
		if tc.name != "sacga" && tc.name != "mesacga" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cp, err := search.LoadCheckpoint(filepath.Join("testdata", tc.name+"-done.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			want, err := search.Run(context.Background(), ref, tc.prob(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			counted := search.ObserverFunc(func(*search.Frame) { steps++ })
			got, err := search.Resume(context.Background(), fresh, tc.prob(), tc.opts, cp, counted)
			if err != nil {
				t.Fatal(err)
			}
			if steps != 0 {
				t.Fatalf("a finished checkpoint resumed for %d more generations", steps)
			}
			if got.Evals != want.Evals || got.Generations != want.Generations {
				t.Fatalf("resumed run: %d evals over %d generations, uninterrupted: %d over %d",
					got.Evals, got.Generations, want.Evals, want.Generations)
			}
			popsIdentical(t, "final", got.Final, want.Final)
			popsIdentical(t, "front", got.Front, want.Front)
		})
	}
}
