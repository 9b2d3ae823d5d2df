package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sacga/internal/expt"
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/mesacga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/process"
	"sacga/internal/rng"
	"sacga/internal/sacga"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/stats"
	"sacga/internal/yield"
)

// The reproduce workload: expt.Run("fig8"), the paper's TPG vs SACGA vs
// MESACGA comparison on the integrator, at a fixed reduced scale — 200
// iterations, population 100, 8 robustness samples, 2 seeds — with as many
// replicate workers as CPUs. It is what the repository exists to do:
// circuit evaluation does nearly all the work, and shard, fleet and serve
// do none.
var fig8Config = expt.Config{Scale: 0.25, PopSize: 100, RobustSamples: 8, Seeds: 2}

// fig8Keys are the headline values checked against the reference.
var fig8Keys = []string{"hv_tpg", "hv_sacga", "hv_mesacga", "ordering_holds"}

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median.
const setupReps = 9

func runReproduce(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := fig8Config
	cfg.Seed = e.seed
	cfg.Workers = runtime.NumCPU()
	opsPer := int64(3 * cfg.Seeds) // an operation is one engine run

	// Set-up: build a problem for each of fig8's runs and evaluate one
	// random population on it — the lazy work (evaluation scratch, the
	// shared worker pool) the runs' first generations would otherwise pay.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for run := int64(0); run < opsPer; run++ {
			prob := fig8Problem(cfg)
			lo, hi := prob.Bounds()
			pop := ga.NewRandomPopulation(rng.New(e.seed+run), cfg.PopSize, lo, hi)
			if err := pop.TryEvaluateWith(prob, nil, 0); err != nil {
				return o, fmt.Errorf("set-up evaluation: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	// Measured: whole reproductions while the budget lasts.
	var (
		walls   []float64
		reports []map[string]float64
	)
	start := time.Now()
	for another(start, e.budget, walls) {
		t0 := time.Now()
		rep, err := expt.Run("fig8", cfg)
		walls = append(walls, time.Since(t0).Seconds())
		o.attempted += opsPer
		if err != nil {
			o.failed += opsPer
			o.check(fmt.Sprintf("reproduction %d", len(walls)), err)
			continue
		}
		reports = append(reports, rep.Values)
	}
	rssKB := maxRSSKB()

	// The six engine runs again, one at a time through search.Driver: the
	// Workers=1 reference for every seed, and the source of the
	// per-generation latencies and of the exact evaluation count.
	ref, err := replayFig8(cfg, 1, nil)
	if err != nil {
		return o, fmt.Errorf("sequential replay: %w", err)
	}
	var recorded map[string]float64
	if ok, err := reference("reproduce", e.seed, &recorded); err != nil {
		return o, err
	} else if ok {
		o.check("Workers=1 replay equals the recorded fig8 reference", sameValues(ref.values, recorded))
	}
	bad := 0
	for i, v := range reports {
		if err := sameValues(v, ref.values); err != nil {
			bad++
			o.failed += opsPer
			o.check(fmt.Sprintf("reproduction %d", i+1), err)
		}
	}
	if bad == 0 && len(reports) > 0 {
		o.check(fmt.Sprintf("%d reproductions: fig8 values equal the Workers=1 replay", len(reports)), nil)
	}

	wall := median(walls)
	lat := summarize(ref.allSteps())
	o.e2e["wall_s"] = wall
	o.e2e["evals_per_s"] = float64(ref.evals) / wall
	o.e2e["latency_ms_p50"] = unitPercentile(ref.steps, 0.5)
	o.e2e["latency_ms_p90"] = unitPercentile(ref.steps, 0.9)
	o.e2e["peak_rss_mb"] = float64(rssKB) / 1024
	o.note("wall_s: median of %d reproductions, %d evaluations each", len(walls), ref.evals)
	o.note("latency_ms: one generation (search.Driver.Step), per-run percentiles' median over the %d replayed runs; pooled %v", len(ref.steps), lat)
	o.note("fig8 values: %s", jsonString(ref.values))
	if e.trace {
		return o, traceReproduce(o, cfg, wall, ref.values)
	}
	return o, nil
}

// traceReproduce replays the six runs once more with expt's replicate
// parallelism, through a traced problem and driver, and derives the
// per-layer metrics. The replay's headline values must equal expt.Run's.
func traceReproduce(o *outcome, cfg expt.Config, untracedWall float64, want map[string]float64) error {
	tr := &tracer{}
	rp, err := replayFig8(cfg, cfg.Workers, tr)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	o.check("traced replay headline values equal expt.Run's", sameValues(rp.values, want))
	ix := newIndex(tr.spans)
	var busy, self, runs int64
	for _, name := range []string{"search.init", "search.step"} {
		for _, s := range ix.byName[name] {
			c := ix.covered(s, "objective.eval")
			busy += c
			self += s.dur() - c
		}
	}
	for _, r := range ix.byName["expt.run"] {
		runs += r.dur()
	}
	layers := o.layers
	layers["objective.evals"] = float64(rp.evals)
	layers["objective.busy_s"] = secs(busy)
	layers["objective.us_per_eval"] = float64(busy) / 1e3 / float64(rp.evals)
	layers["objective.quarantined"] = float64(rp.quarantined)
	layers["search.step_ms_p50"] = median(ix.durations("search.step"))
	layers["search.self_ms_p50"] = median(ix.selfTimes("search.step", "objective.eval"))
	layers["expt.run_s_p50"] = median(ix.durations("expt.run")) / 1e3
	layers["expt.parallel_eff"] = secs(runs) / (rp.wall.Seconds() * float64(cfg.Workers))
	var p ckptProbe
	err = p.addSet(rp.final, func(i int) search.Options { return rp.opts[i] },
		func() (objective.Problem, error) { return fig8Problem(cfg), nil }, false)
	if err != nil {
		return err
	}
	p.fill(layers)
	layers["trace.overhead"] = rp.wall.Seconds() / untracedWall
	o.note("accounting: objective.busy_s %.3f s + search self %.3f s = %.1f%% of the %.3f s the replayed runs took",
		secs(busy), secs(self), 100*float64(busy+self)/float64(runs), secs(runs))
	o.note("trace.overhead: traced replay %.3f s / untraced expt.Run %.3f s", rp.wall.Seconds(), untracedWall)
	return nil
}

// fig8Replay is the outcome of re-running fig8's engine runs.
type fig8Replay struct {
	values      map[string]float64
	evals       int64
	quarantined int64
	steps       [][]float64 // Driver.Step durations by run, ms
	wall        time.Duration
	final       []*search.Checkpoint // traced only
	opts        []search.Options
}

func (rp *fig8Replay) allSteps() []float64 {
	var all []float64
	for _, s := range rp.steps {
		all = append(all, s...)
	}
	return all
}

// fig8Run is one replayed engine run.
type fig8Run struct {
	opts               search.Options
	steps              []float64
	hv                 float64
	evals, quarantined int64
	final              *search.Checkpoint
	err                error
}

// replayFig8 re-runs the engine runs of expt's fig8 — run i is algorithm
// i%3 (TPG, SACGA, MESACGA) on seed cfg.Seed+i/3, configured as expt
// configures it — at most workers at a time on the shared pool, as expt
// schedules them, and recomputes the headline values from their fronts.
// Traced, each run is an expt.run span over search.init and search.step
// spans, and the problem records objective.eval spans under those.
func replayFig8(cfg expt.Config, workers int, tr *tracer) (*fig8Replay, error) {
	runs := make([]fig8Run, 3*cfg.Seeds)
	start := time.Now()
	ga.SharedPool().RunLimit(len(runs), workers, func(i int) {
		r := &runs[i]
		var eng search.Engine
		eng, r.opts = fig8Engine(cfg, i)
		var prob objective.Problem = fig8Problem(cfg)
		var tp *tracedProblem
		var runID int64
		if tr != nil {
			tp = &tracedProblem{Problem: prob, tr: tr}
			prob = tp
			runID = tr.open()
		}
		counter := objective.NewCounter(prob)
		runStart := now()
		initID := begin(tr, tp)
		if r.err = eng.Init(counter, r.opts); r.err != nil {
			return
		}
		if tr != nil {
			tr.add(span{ID: initID, Parent: runID, Name: "search.init", Start: runStart, End: now()})
		}
		var res *search.Result
		if r.steps, res, r.err = drive(eng, tr, tp, "search.step", "", runID, nil); r.err != nil {
			return
		}
		if tr != nil {
			tr.add(span{ID: runID, Name: "expt.run", Start: runStart, End: now()})
			r.final = eng.Checkpoint()
			r.quarantined = tp.quarantined.Load()
		}
		r.hv = paperHV(res.Front)
		r.evals = counter.Count()
	})
	rp := &fig8Replay{wall: time.Since(start)}
	var hvT, hvS, hvM []float64
	for i, r := range runs {
		if r.err != nil {
			return nil, fmt.Errorf("run %d: %w", i, r.err)
		}
		rp.evals += r.evals
		rp.quarantined += r.quarantined
		rp.steps = append(rp.steps, r.steps)
		rp.final = append(rp.final, r.final)
		rp.opts = append(rp.opts, r.opts)
		switch i % 3 {
		case 0:
			hvT = append(hvT, r.hv)
		case 1:
			hvS = append(hvS, r.hv)
		default:
			hvM = append(hvM, r.hv)
		}
	}
	// The headline values exactly as expt.Fig8 derives them.
	mT, mS, mM := stats.Mean(hvT), stats.Mean(hvS), stats.Mean(hvM)
	ordered := 0.0
	if mM <= mS*1.02 && mS <= mT*1.02 {
		ordered = 1
	}
	rp.values = map[string]float64{"hv_tpg": mT, "hv_sacga": mS, "hv_mesacga": mM, "ordering_holds": ordered}
	return rp, nil
}

// fig8Engine configures fig8's run i as expt's runTPG, runSACGA and
// runMESACGA do.
func fig8Engine(cfg expt.Config, i int) (search.Engine, search.Options) {
	total := max(int(800*cfg.Scale), 12)
	gentMax := min(max(int(200*cfg.Scale), 12), total/4+1)
	opts := search.Options{PopSize: cfg.PopSize, Generations: total, Seed: cfg.Seed + int64(i/3)}
	clLo, clHi := sizing.ObjectiveRangeCL()
	switch i % 3 {
	case 0:
		return new(nsga2.Engine), opts
	case 1:
		opts.Extra = &sacga.Params{Partitions: 8, PartitionObjective: 1, PartitionLo: clLo, PartitionHi: clHi, GentMax: gentMax}
		return new(sacga.Engine), opts
	default:
		opts.Extra = &mesacga.Params{PartitionObjective: 1, PartitionLo: clLo, PartitionHi: clHi, GentMax: gentMax}
		return new(mesacga.Engine), opts
	}
}

// fig8Problem is the problem every fig8 run optimizes: the paper's
// integrator spec with the robustness constraint.
func fig8Problem(cfg expt.Config) objective.Problem {
	return sizing.New(process.Default018(), sizing.PaperSpec(),
		sizing.WithRobustness(yield.NewEstimator(cfg.Seed, cfg.RobustSamples)))
}

// hvUnit is the paper's hypervolume unit, 0.1 mW·pF, as expt uses it.
const hvUnit = 0.1e-3 * 1e-12

// paperHV is the paper's staircase hypervolume of a front's feasible
// points in the reported (CL, Power) plane.
func paperHV(front ga.Population) float64 {
	pts := make([]hypervolume.Point2, 0, len(front))
	for _, ind := range front {
		if ind.Feasible() {
			cl, pw := sizing.ReportedPoint(ind.Objectives)
			pts = append(pts, hypervolume.Point2{X: cl, Y: pw})
		}
	}
	return hypervolume.PaperMetric(pts) / hvUnit
}

// sameValues compares the checked headline values bit for bit.
func sameValues(got, want map[string]float64) error {
	for _, k := range fig8Keys {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Errorf("%s = %v, want %v", k, got[k], want[k])
		}
	}
	return nil
}
