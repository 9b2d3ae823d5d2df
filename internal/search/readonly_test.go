package search_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"sacga/internal/mesacga"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// defaultedSACGA leaves every defaultable SACGA knob at zero (partition
// count, phase-I cap, N, Shape, Pressure), so a normalize that wrote
// through the caller's pointer would change it.
func defaultedSACGA() *sacga.Params {
	return &sacga.Params{PartitionObjective: 0, PartitionLo: 0.1, PartitionHi: 1}
}

// TestExtensionStructsStayReadOnly pins that Init and Restore never write
// through Options.Extra. Engines normalize a private copy: schedulers hand
// the same extension pointer to every replica (sched.ReplicaOptions), so an
// in-place normalize would race across replicas initialized concurrently.
func TestExtensionStructsStayReadOnly(t *testing.T) {
	cases := []struct {
		algo    string
		prob    func() objective.Problem
		popSize int
		extra   func() any // builds a fresh, equal extension struct per call
	}{
		{"sacga", constrProblem, 16, func() any { return defaultedSACGA() }},
		{"mesacga", constrProblem, 16, func() any {
			return &mesacga.Params{PartitionObjective: 0, PartitionLo: 0.1, PartitionHi: 1}
		}},
		{sched.NameParallelIslands, constrProblem, 32, func() any {
			return &sched.IslandsParams{Algo: "sacga", Extra: defaultedSACGA()}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			prob := tc.prob()
			opts := search.Options{PopSize: tc.popSize, Generations: 6, Seed: 21, Extra: tc.extra()}
			unchanged := func(when string) {
				t.Helper()
				if want := tc.extra(); !reflect.DeepEqual(opts.Extra, want) {
					t.Fatalf("%s wrote through Options.Extra: %+v, want %+v", when, opts.Extra, want)
				}
			}
			eng, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Init(prob, opts); err != nil {
				t.Fatal(err)
			}
			unchanged("Init")
			for i := 0; i < 2; i++ {
				if err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			fresh, err := search.New(tc.algo)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(prob, opts, eng.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			unchanged("Restore")
		})
	}
}

// TestReplicasShareOneSACGAParams runs four SACGA replicas that share one
// *sacga.Params and initialize and step concurrently (GOMAXPROCS 4, so on
// any number of cores). Under the race detector any write through the
// shared pointer fails the run; without it, the result must still match
// sequential stepping (GOMAXPROCS 1) bit for bit and leave the shared
// struct as it was. No test in this package runs in parallel, so the
// GOMAXPROCS setting is this test's own.
func TestReplicasShareOneSACGAParams(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shared := defaultedSACGA()
	run := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		eng, err := search.New(sched.NameParallelIslands)
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.Run(context.Background(), eng, constrProblem(), search.Options{
			PopSize: 48, Generations: 8, Seed: 23,
			Extra: &sched.IslandsParams{
				Replicas: 4, Algo: "sacga", Extra: shared,
				MigrationEvery: 3,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return popDigest(res.Final)
	}
	concurrent, sequential := run(4), run(1)
	if concurrent != sequential {
		t.Fatalf("GOMAXPROCS 4 digest %s, sequential %s", concurrent, sequential)
	}
	if !reflect.DeepEqual(shared, defaultedSACGA()) {
		t.Fatalf("replicas wrote through the shared Params: %+v", shared)
	}
}
