// Package bench holds the repository-level benchmark harness: one
// testing.B benchmark per reproduced paper figure (running the actual
// experiment pipeline at a reduced budget and reporting the headline
// metric), plus micro-benchmarks of the load-bearing kernels (circuit
// evaluation, non-dominated sorting, hypervolume).
//
// Full paper-scale figures are regenerated with `go run ./cmd/expts`; these
// benchmarks exist to give a stable, quick performance and regression
// signal:
//
//	go test -bench=. -benchmem
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/expt"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/pareto"
	"sacga/internal/process"
	"sacga/internal/rng"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/yield"
)

// benchCfg is the reduced-budget configuration used by the per-figure
// benchmarks (~40–60 iterations instead of 800–1250).
func benchCfg() expt.Config {
	return expt.Config{
		Seed:    7,
		Scale:   0.05,
		PopSize: 40,
		Workers: 4,
	}
}

func runExperiment(b *testing.B, id, metric string) {
	b.Helper()
	cfg := benchCfg()
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := expt.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Values[metric]
	}
	b.ReportMetric(last, metric)
}

// BenchmarkFig2TPGFront regenerates the fig. 2 row: the NSGA-II baseline
// front and its 4–5 pF cluster fraction.
func BenchmarkFig2TPGFront(b *testing.B) {
	runExperiment(b, "fig2", "cluster_fraction_4to5pF")
}

// BenchmarkFig4ProbCurves regenerates the fig. 4 row: eqn. (3) probability
// curves (pure computation, no GA).
func BenchmarkFig4ProbCurves(b *testing.B) {
	runExperiment(b, "fig4", "p1_mid")
}

// BenchmarkFig5SACGAFront regenerates the fig. 5 row: TPG vs 8-partition
// SACGA under one budget.
func BenchmarkFig5SACGAFront(b *testing.B) {
	runExperiment(b, "fig5", "hv_sacga")
}

// BenchmarkFig6PartitionSweep regenerates the fig. 6 row: the partition
// count sweep.
func BenchmarkFig6PartitionSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.02
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := expt.Run("fig6", cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Values["best_m"]
	}
	b.ReportMetric(last, "best_m")
}

// BenchmarkFig8ThreeWay regenerates the fig. 8 row: the three-way front
// comparison.
func BenchmarkFig8ThreeWay(b *testing.B) {
	runExperiment(b, "fig8", "hv_mesacga")
}

// BenchmarkFig9SpanSweep regenerates the fig. 9 row: quality vs preset
// iteration budget.
func BenchmarkFig9SpanSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.03
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := expt.Run("fig9", cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Values["hv_iters1200"]
	}
	b.ReportMetric(last, "hv_iters1200")
}

// BenchmarkFig10PhaseTrace regenerates the fig. 10 row: per-phase HV of
// MESACGA at three spans.
func BenchmarkFig10PhaseTrace(b *testing.B) {
	runExperiment(b, "fig10", "final_hv_span150")
}

// BenchmarkFig11HeadToHead regenerates the fig. 11 row: MESACGA vs the
// best hand-tuned SACGA.
func BenchmarkFig11HeadToHead(b *testing.B) {
	runExperiment(b, "fig11", "ratio")
}

// BenchmarkTrendsLadder regenerates the §5 trends row over a reduced
// specification ladder budget.
func BenchmarkTrendsLadder(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.02
	cfg.PopSize = 30
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := expt.Run("trends", cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Values["sacga_beats_tpg_count"]
	}
	b.ReportMetric(last, "sacga_beats_tpg")
}

// BenchmarkAblation regenerates the design-choice ablation row (annealed
// mix vs extremes vs island model).
func BenchmarkAblation(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.03
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := expt.Run("ablation", cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Values["hv_sacga"]
	}
	b.ReportMetric(last, "hv_sacga")
}

// ---- kernel micro-benchmarks ----

// BenchmarkCircuitEvaluate measures one full sizing evaluation: 15-gene
// decode, five corner analyses, constraint vector — through the scalar
// in-place path (objective.IntoProblem) with a recycled Result, the same
// pooled-scratch route ga.Individual.Eval takes, so the steady state is
// allocation-free.
func BenchmarkCircuitEvaluate(b *testing.B) {
	prob := sizing.New(process.Default018(), sizing.PaperSpec())
	s := rng.New(1)
	lo, hi := prob.Bounds()
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = ga.NewRandom(s, lo, hi).X
	}
	var res objective.Result
	prob.EvaluateInto(xs[0], &res) // warm the result buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.EvaluateInto(xs[i%len(xs)], &res)
	}
}

// BenchmarkCircuitEvaluateBatch measures the struct-of-arrays fast path on
// the same workload: one op = a 64-individual EvaluateBatch (compare
// ns/op÷64 with BenchmarkCircuitEvaluate, and allocs/op with its 2).
func BenchmarkCircuitEvaluateBatch(b *testing.B) {
	prob := sizing.New(process.Default018(), sizing.PaperSpec())
	s := rng.New(1)
	lo, hi := prob.Bounds()
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = ga.NewRandom(s, lo, hi).X
	}
	out := make([]objective.Result, len(xs))
	prob.EvaluateBatch(xs, out) // warm scratch + result buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.EvaluateBatch(xs, out)
	}
}

// BenchmarkCircuitEvaluateBatchRobust measures the batch path with the
// robustness constraint on, as the experiments and circuit jobs run it: one
// op = a 64-design EvaluateBatch with an 8-sample Monte-Carlo estimator.
// The designs sit on the near-feasible gate, so most of them take the
// Monte-Carlo pass; random designs almost never reach it and would time
// only the corner sweep of BenchmarkCircuitEvaluateBatch.
func BenchmarkCircuitEvaluateBatchRobust(b *testing.B) {
	prob := sizing.New(process.Default018(), sizing.PaperSpec(),
		sizing.WithRobustness(yield.NewEstimator(5, 8)))
	xs := nearFeasibleDesigns(1, 64)
	out := make([]objective.Result, len(xs))
	prob.EvaluateBatch(xs, out) // warm scratch + result buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.EvaluateBatch(xs, out)
	}
}

// BenchmarkCircuitEvaluateBatchRobustWidth is BenchmarkCircuitEvaluateBatchRobust
// at several batch widths, reporting the cost per call and per lane: the
// curve behind the pooled evaluator's sub-batch floor
// (ga.Population.TryEvaluateWith).
// The lane engine's per-call work (plane set-up, every secant step over
// the padded chunks) is shared by the lanes of a call, so a call of one
// design costs 60-80% as much as a call of eight, and narrow batches pay
// more per design.
func BenchmarkCircuitEvaluateBatchRobustWidth(b *testing.B) {
	for _, n := range []int{1, 8, 13, 25, 50, 100} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			prob := sizing.New(process.Default018(), sizing.PaperSpec(),
				sizing.WithRobustness(yield.NewEstimator(5, 8)))
			xs := nearFeasibleDesigns(1, n)
			out := make([]objective.Result, n)
			prob.EvaluateBatch(xs, out) // warm scratch + result buffers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prob.EvaluateBatch(xs, out)
			}
			us := float64(b.Elapsed().Nanoseconds()) / 1e3 / float64(b.N)
			b.ReportMetric(us, "us/call")
			b.ReportMetric(us/float64(n), "us/lane")
		})
	}
}

// nearFeasibleDesigns returns n genomes clustered on the sizing problem's
// Monte-Carlo gate (every worst-corner DR, OR, ST, SE, saturation-region
// and phase-margin violation below 0.2), which fewer than 1 in 100 uniform
// random designs pass: anchors from a seeded random search, each member
// one anchor plus a small gaussian jitter.
func nearFeasibleDesigns(seed int64, n int) [][]float64 {
	prob := sizing.New(process.Default018(), sizing.PaperSpec())
	s := rng.New(seed)
	var anchors [][]float64
	for len(anchors) < 8 {
		x := make([]float64, sizing.NumGenes)
		for g := range x {
			x[g] = s.Float64()
		}
		v := prob.Evaluate(x).Violations
		gated := true
		for _, c := range []int{sizing.ConsDR, sizing.ConsOR, sizing.ConsST,
			sizing.ConsSE, sizing.ConsSatRegion, sizing.ConsPM} {
			gated = gated && v[c] < 0.2
		}
		if gated {
			anchors = append(anchors, x)
		}
	}
	xs := make([][]float64, n)
	for i := range xs {
		a := anchors[i%len(anchors)]
		x := make([]float64, sizing.NumGenes)
		for g := range x {
			x[g] = a[g] + 0.02*s.Norm()
		}
		xs[i] = x
	}
	return xs
}

// ---- evaluation-engine benchmarks ----
//
// The pooled evaluator replaced a per-call evaluator that spawned a
// goroutine flock and fed it one index at a time over an unbuffered
// channel. spawnEvaluate reproduces that historical baseline so the
// before/after dispatch overhead stays measurable; the pooled and
// sequential rows are the current paths.

// spawnEvaluate is the seed repository's parallel evaluator: per-call
// goroutines, unbuffered per-index dispatch.
func spawnEvaluate(p ga.Population, prob objective.Problem, workers int) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p[i].Eval(prob)
			}
		}()
	}
	for i := range p {
		next <- i
	}
	close(next)
	wg.Wait()
}

func benchPopulation(n int) (ga.Population, objective.Problem) {
	prob := sizing.New(process.Default018(), sizing.PaperSpec())
	s := rng.New(9)
	lo, hi := prob.Bounds()
	return ga.NewRandomPopulation(s, n, lo, hi), prob
}

// BenchmarkPopulationEvalSequential is the single-threaded floor: one
// generation's evaluation through the engines' evaluator with no dispatch
// at all (the batch fast path, scratch warmed — steady state is
// allocation-free).
func BenchmarkPopulationEvalSequential(b *testing.B) {
	benchEvaluate(b, 1)
}

// BenchmarkPopulationEvalSpawnPerCall measures the pre-pool dispatch
// strategy (goroutine flock per call, unbuffered channel).
func BenchmarkPopulationEvalSpawnPerCall(b *testing.B) {
	pop, prob := benchPopulation(256)
	workers := runtime.NumCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnEvaluate(pop, prob, workers)
	}
}

// BenchmarkPopulationEvalPooled measures the persistent chunk-stealing
// pool that replaced it, now dispatching contiguous sub-batches through
// the batch fast path.
func BenchmarkPopulationEvalPooled(b *testing.B) {
	benchEvaluate(b, 0)
}

// benchEvaluate times TryEvaluateWith, the evaluator every engine calls,
// over a 256-design integrator population on the shared pool with the
// given worker count, after one warming call.
func benchEvaluate(b *testing.B, workers int) {
	pop, prob := benchPopulation(256)
	if err := pop.TryEvaluateWith(prob, nil, workers); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pop.TryEvaluateWith(prob, nil, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// replicateConfig is the figure-level workload for the concurrent
// replicate runner: fig5 (one TPG + one SACGA run per seed) across 4
// seeds at reduced budget.
func replicateConfig(workers int) expt.Config {
	return expt.Config{
		Seed:    7,
		Scale:   0.04,
		PopSize: 32,
		Seeds:   4,
		Workers: workers,
	}
}

// BenchmarkExptReplicatesSequential runs the replicate sweep with the
// concurrent runner disabled (Workers=1) — the seed repository's
// effective behavior for one experiment.
func BenchmarkExptReplicatesSequential(b *testing.B) {
	cfg := replicateConfig(1)
	for i := 0; i < b.N; i++ {
		if _, err := expt.Run("fig5", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExptReplicatesPooled fans the same sweep out across the shared
// worker pool; on a multi-core runner this is the ≥2× row of the
// evaluation-engine acceptance criteria.
func BenchmarkExptReplicatesPooled(b *testing.B) {
	cfg := replicateConfig(0) // NumCPU
	for i := 0; i < b.N; i++ {
		if _, err := expt.Run("fig5", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakeChildren measures one generation's variation pipeline
// (tournament selection, SBX, polynomial mutation) with per-pairing child
// allocation: a fresh arena every generation, as before arenas existed.
func BenchmarkMakeChildren(b *testing.B) {
	pop, prob := benchPopulation(100)
	if err := pop.TryEvaluateWith(prob, nil, 1); err != nil {
		b.Fatal(err)
	}
	pop.AssignRanksAndCrowding()
	lo, hi := prob.Bounds()
	s := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nsga2.MakeChildrenInto(s, pop, lo, hi, len(pop), &ga.Arena{}, nil)
	}
}

// BenchmarkMakeChildrenArena measures the same pipeline through
// generation-recycled offspring buffers (compare allocs/op with
// BenchmarkMakeChildren under -benchmem; steady state is zero).
func BenchmarkMakeChildrenArena(b *testing.B) {
	pop, prob := benchPopulation(100)
	if err := pop.TryEvaluateWith(prob, nil, 1); err != nil {
		b.Fatal(err)
	}
	pop.AssignRanksAndCrowding()
	lo, hi := prob.Bounds()
	s := rng.New(3)
	arena := &ga.Arena{}
	children := nsga2.MakeChildrenInto(s, pop, lo, hi, len(pop), arena, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range children {
			arena.Recycle(c)
		}
		children = nsga2.MakeChildrenInto(s, pop, lo, hi, len(pop), arena, children)
	}
}

// BenchmarkNondominatedSort measures the fast non-dominated sort on a
// 200-point two-objective population.
func BenchmarkNondominatedSort(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]pareto.Point, 200)
	for i := range pts {
		pts[i] = pareto.Point{Obj: []float64{r.Float64(), r.Float64()}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.SortFronts(pts)
	}
}

// BenchmarkNondominatedSortReused measures the same sort through a reused
// Sorter — the zero-allocation engine path (compare allocs/op with
// BenchmarkNondominatedSort under -benchmem).
func BenchmarkNondominatedSortReused(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]pareto.Point, 200)
	for i := range pts {
		pts[i] = pareto.Point{Obj: []float64{r.Float64(), r.Float64()}}
	}
	var s pareto.Sorter
	s.Sort(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sort(pts)
	}
}

// BenchmarkHypervolumePaper measures the staircase metric on a 100-point
// front.
func BenchmarkHypervolumePaper(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	front := make([]hypervolume.Point2, 100)
	for i := range front {
		front[i] = hypervolume.Point2{X: 5e-12 * r.Float64(), Y: 1e-3 * r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypervolume.PaperMetric(front)
	}
}

// BenchmarkHypervolumePaperReused measures the staircase metric through a
// reused Calc — the zero-allocation scorer path.
func BenchmarkHypervolumePaperReused(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	front := make([]hypervolume.Point2, 100)
	for i := range front {
		front[i] = hypervolume.Point2{X: 5e-12 * r.Float64(), Y: 1e-3 * r.Float64()}
	}
	var c hypervolume.Calc
	c.PaperMetric(front)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PaperMetric(front)
	}
}

// BenchmarkHypervolumeWFG measures the n-dimensional WFG hypervolume on a
// 24-point three-objective front.
func BenchmarkHypervolumeWFG(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	front := make([][]float64, 24)
	for i := range front {
		front[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ref := []float64{1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypervolume.WFG(front, ref)
	}
}

// ---- unified search driver benchmarks ----

// benchStepProblem is a trivial two-objective problem implementing the
// in-place and batch fast paths, so a generation over it is dominated by
// the engine/driver machinery rather than objective evaluation — the
// workload that makes the step-loop wrapper's overhead visible.
type benchStepProblem struct{ nvar int }

func (p *benchStepProblem) Name() string        { return "bench-step" }
func (p *benchStepProblem) NumVars() int        { return p.nvar }
func (p *benchStepProblem) NumObjectives() int  { return 2 }
func (p *benchStepProblem) NumConstraints() int { return 0 }
func (p *benchStepProblem) Bounds() (lo, hi []float64) {
	lo = make([]float64, p.nvar)
	hi = make([]float64, p.nvar)
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}

func (p *benchStepProblem) Evaluate(x []float64) objective.Result {
	var out objective.Result
	p.EvaluateInto(x, &out)
	return out
}

func (p *benchStepProblem) EvaluateInto(x []float64, out *objective.Result) {
	out.Prepare(2, 0)
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	out.Objectives[0] = s
	out.Objectives[1] = 1 - x[0]
}

func (p *benchStepProblem) EvaluateBatch(xs [][]float64, out []objective.Result) {
	for i, x := range xs {
		p.EvaluateInto(x, &out[i])
	}
}

func warmNSGA2Engine(b *testing.B) *nsga2.Engine {
	b.Helper()
	eng := new(nsga2.Engine)
	err := eng.Init(&benchStepProblem{nvar: 8}, search.Options{
		PopSize: 100, Generations: 1 << 30, Seed: 1, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineStepDirect is the baseline for the driver-overhead pair:
// one raw engine generation (variation, evaluation, sort, select) with no
// driver or observers — the legacy monolithic loop's per-iteration work.
func BenchmarkEngineStepDirect(b *testing.B) {
	eng := warmNSGA2Engine(b)
	for i := 0; i < 5; i++ {
		eng.Step() // warm the recycled buffers
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchStepOverhead measures the same generation through the
// search.Driver step loop with an observer attached — the unified API's
// per-generation wrapper (context check, budget check, frame fan-out).
// Compare against BenchmarkEngineStepDirect: the wrapper must add 0
// allocs/op and ≲2% ns/op (TestDriverStepAllocs pins the allocation half
// machine-independently).
func BenchmarkSearchStepOverhead(b *testing.B) {
	eng := warmNSGA2Engine(b)
	var gens int
	d := search.NewDriver(eng, search.ObserverFunc(func(f *search.Frame) { gens = f.Gen }))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		d.Step(ctx) // warm the recycled buffers
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
	_ = gens
}

// checkpointCodecPair returns a pop-100 zdt1 nsga2 checkpoint in the
// packed form this build writes and the same checkpoint with its
// population in the read-only struct-form field older builds wrote.
func checkpointCodecPair(b *testing.B) (packed, structForm *search.Checkpoint) {
	b.Helper()
	eng := new(nsga2.Engine)
	if err := eng.Init(benchfn.ByName("zdt1"), search.Options{PopSize: 100, Generations: 10, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	for !eng.Done() {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	packed = eng.Checkpoint()
	sn := *packed.State.(*nsga2.Snapshot)
	pop, err := ga.UnpackPopulation(sn.PackedPop)
	if err != nil {
		b.Fatal(err)
	}
	sn.PackedPop, sn.Pop = nil, pop
	structForm = &search.Checkpoint{Algo: packed.Algo, Gen: packed.Gen, Evals: packed.Evals, State: &sn}
	return packed, structForm
}

// benchCheckpointCodec encodes and decodes cp through the sealed
// checkpoint form, as a disk save and load do.
func benchCheckpointCodec(b *testing.B, cp *search.Checkpoint) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := search.EncodeCheckpoint(cp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := search.DecodeCheckpoint("bench", data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointCodecStruct and BenchmarkCheckpointCodecPacked are
// the checkpoint codec's speedup pair: one nsga2 checkpoint at pop 100 on
// zdt1 through EncodeCheckpoint and DecodeCheckpoint, its population in
// gob's struct form and packed.
func BenchmarkCheckpointCodecStruct(b *testing.B) {
	_, cp := checkpointCodecPair(b)
	benchCheckpointCodec(b, cp)
}

func BenchmarkCheckpointCodecPacked(b *testing.B) {
	cp, _ := checkpointCodecPair(b)
	benchCheckpointCodec(b, cp)
}
