package sched_test

import (
	"runtime"
	"testing"
	"time"

	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// latencyProblem models the regime generation-level parallelism exists
// for: evaluations dominated by per-call latency rather than CPU — an
// external circuit simulator reached over IPC, a measurement rig, a remote
// service. Each evaluation sleeps ~100µs and then computes a trivial
// ZDT1-shaped objective pair. With the inner engines forced onto the
// sequential evaluation path (Workers: 1), the only concurrency in the
// benchmark is the scheduler's replica stepping, so the Sequential/parallel
// pair isolates exactly the speedup the subsystem claims.
type latencyProblem struct{ delay time.Duration }

func (p *latencyProblem) Name() string        { return "latency-zdt" }
func (p *latencyProblem) NumVars() int        { return 6 }
func (p *latencyProblem) NumObjectives() int  { return 2 }
func (p *latencyProblem) NumConstraints() int { return 0 }
func (p *latencyProblem) Bounds() (lo, hi []float64) {
	lo = make([]float64, p.NumVars())
	hi = make([]float64, p.NumVars())
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}

func (p *latencyProblem) Evaluate(x []float64) objective.Result {
	time.Sleep(p.delay)
	g := 1.0
	for _, v := range x[1:] {
		g += 9 * v / float64(len(x)-1)
	}
	f1 := x[0]
	return objective.Result{Objectives: []float64{f1, g * (1 - f1/g*f1/g)}}
}

// benchScheduledIslands drives a full 4-replica ensemble (init + 6 epochs,
// one ring migration) over the latency-bound problem under GOMAXPROCS
// procs, which is how many replicas the scheduler steps at once.
func benchScheduledIslands(b *testing.B, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	prob := &latencyProblem{delay: 100 * time.Microsecond}
	opts := search.Options{
		PopSize: 32, Generations: 6, Seed: 1, Workers: 1,
		Extra: &sched.IslandsParams{
			Replicas: 4, Algo: "nsga2",
			MigrationEvery: 3, Migrants: 2,
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := new(sched.ParallelIslands)
		if err := eng.Init(prob, opts); err != nil {
			b.Fatal(err)
		}
		for !eng.Done() {
			if err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScheduledIslandsSequential is the round-robin baseline: one
// replica steps at a time (GOMAXPROCS 1), the schedule that driving the
// engines in a loop already expresses.
func BenchmarkScheduledIslandsSequential(b *testing.B) { benchScheduledIslands(b, 1) }

// BenchmarkScheduledIslands steps the four replicas concurrently
// (GOMAXPROCS 4, on any number of cores: the replicas mostly wait on
// evaluation latency) — the subsystem's headline: ≥1.5× wall-clock over
// the sequential baseline (CI enforces the ratio via benchdelta
// -speedup), bit-identical results (TestParallelIslandsDeterministic).
func BenchmarkScheduledIslands(b *testing.B) { benchScheduledIslands(b, 4) }
