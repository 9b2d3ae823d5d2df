// Package expt is the reproduction harness: one runner per figure of the
// paper's evaluation (figs. 2, 4, 5, 6, 8, 9, 10, 11) plus the §5 trends
// study over twenty graded specifications. Each runner executes the
// required optimizer runs, writes CSV data and an ASCII chart into an
// output directory, and returns a Report with the headline numbers that
// EXPERIMENTS.md tracks against the paper.
//
// Budgets scale with Config.Scale: 1.0 reproduces the paper's iteration
// counts (hundreds of thousands of circuit evaluations — minutes of CPU);
// the bench harness uses small scales for quick regression signals.
package expt

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/mesacga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/plot"
	"sacga/internal/process"
	"sacga/internal/sacga"
	"sacga/internal/search"
	"sacga/internal/sizing"
	"sacga/internal/yield"
)

// Config parameterizes every experiment runner.
type Config struct {
	// OutDir receives CSV and chart files; empty disables file output.
	OutDir string
	// Seed is the master seed; run r of an experiment derives seed+r.
	Seed int64
	// Scale multiplies the paper's iteration budgets (1.0 = paper scale;
	// clamped so every run keeps a minimal sensible budget).
	Scale float64
	// PopSize is the GA population (default 100).
	PopSize int
	// RobustSamples sets the Monte-Carlo robustness sample count
	// (0 disables the robustness constraint).
	RobustSamples int
	// Seeds is the number of independent repetitions averaged where the
	// paper reports single runs (default 1 at full scale).
	Seeds int
	// Workers bounds parallel runs (default: NumCPU).
	Workers int
	// Cache, when non-nil, short-circuits experiments whose (id, config,
	// seed) fingerprint already completed — the partial-failure recovery
	// path of RunAll. Fresh successes are stored back.
	Cache *Cache
}

func (c *Config) normalize() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.PopSize <= 0 {
		c.PopSize = 100
	}
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
}

// iters scales a paper iteration budget, keeping a floor so tiny scales
// still exercise both phases.
func (c *Config) iters(paper int) int {
	n := int(float64(paper) * c.Scale)
	if n < 12 {
		n = 12
	}
	return n
}

// Report carries an experiment's outcome.
type Report struct {
	ID      string
	Title   string
	Summary []string
	// Values holds the machine-checkable headline numbers.
	Values map[string]float64
	Files  []string
	// Elapsed is the wall time of the whole experiment (the original run's
	// wall time when the report was served from the result cache).
	Elapsed time.Duration
	// Cached marks a report served from the experiment result cache.
	Cached bool `json:",omitempty"`
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: map[string]float64{}}
}

func (r *Report) linef(format string, args ...interface{}) {
	r.Summary = append(r.Summary, fmt.Sprintf(format, args...))
}

// Registry of experiment runners, populated in init to avoid an
// initialization cycle (runners call Title on themselves).
var registry map[string]struct {
	title string
	run   func(Config) (*Report, error)
}

func init() {
	registry = map[string]struct {
		title string
		run   func(Config) (*Report, error)
	}{
		"fig2":     {"NSGA-II (TPG) front after 800 iterations — clustering", Fig2},
		"fig4":     {"SACGA participation-probability curves (n=5, span=100)", Fig4},
		"fig5":     {"TPG vs 8-partition SACGA fronts after 800 iterations", Fig5},
		"fig6":     {"SACGA hypervolume vs number of partitions (1200 iterations)", Fig6},
		"fig8":     {"TPG vs SACGA vs MESACGA fronts after 800 iterations", Fig8},
		"fig9":     {"SACGA hypervolume vs preset total iterations (m=8)", Fig9},
		"fig10":    {"Hypervolume across the 7 MESACGA phases (span 50/100/150)", Fig10},
		"fig11":    {"1250-iteration MESACGA vs best 1200-iteration SACGA (m=16)", Fig11},
		"trends":   {"Sec. 5 trends: 20 graded specs × {TPG, SACGA, MESACGA}", Trends},
		"ablation": {"Design-choice ablation: annealing vs extremes vs island model", Ablation},
		"hybrid":   {"Multi-engine schedulers: SACGA vs relay vs portfolio vs parallel islands", Hybrid},
	}
}

// IDs lists the registered experiments in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's one-line description.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by id.
func Run(id string, c Config) (*Report, error) {
	ent, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (have %v)", id, IDs())
	}
	c.normalize()
	start := time.Now()
	rep, err := ent.run(c)
	if rep != nil {
		rep.Elapsed = time.Since(start)
	}
	return rep, err
}

// ---- shared problem / metric helpers ----

// hvUnit converts W·F to the paper's hypervolume unit, 0.1 mW·pF.
const hvUnit = 0.1e-3 * 1e-12

// powerCeiling is the pessimistic power bound used by the coverage-pinned
// hypervolume variant for fronts that miss part of the load range.
const powerCeiling = 1.0e-3

func (c *Config) problem(spec sizing.Spec) *sizing.Problem {
	tech := process.Default018()
	opts := []sizing.Option{}
	if c.RobustSamples > 0 {
		opts = append(opts, sizing.WithRobustness(yield.NewEstimator(c.Seed, c.RobustSamples)))
	}
	return sizing.New(tech, spec, opts...)
}

// runOut is one optimizer run's digest.
type runOut struct {
	algo     string
	pts      []hypervolume.Point2 // feasible front, reported (CL, Power) SI
	hv       float64              // paper staircase metric, 0.1 mW·pF units
	hvCover  float64              // coverage-pinned variant, same units
	minCL    float64              // smallest feasible front CL (F)
	evals    int64
	wall     time.Duration
	gentUsed int
	err      error // evaluation fault, if the run degraded (digest still valid)
}

func frontPoints(front ga.Population) []hypervolume.Point2 {
	pts := make([]hypervolume.Point2, 0, len(front))
	for _, ind := range front {
		if !ind.Feasible() {
			continue
		}
		cl, pw := sizing.ReportedPoint(ind.Objectives)
		pts = append(pts, hypervolume.Point2{X: cl, Y: pw})
	}
	return pts
}

func digest(algo string, front ga.Population, evals int64, wall time.Duration, gent int) runOut {
	pts := frontPoints(front)
	minCL := math.Inf(1)
	for _, p := range pts {
		minCL = math.Min(minCL, p.X)
	}
	return runOut{
		algo:     algo,
		pts:      pts,
		hv:       hypervolume.PaperMetric(pts) / hvUnit,
		hvCover:  hypervolume.PaperMetricCovering(pts, sizing.CLMax, powerCeiling) / hvUnit,
		minCL:    minCL,
		evals:    evals,
		wall:     wall,
		gentUsed: gent,
	}
}

// run drives an engine through the unified search driver. Evaluation
// faults no longer crash the harness: the best-so-far result comes back
// alongside the typed error, so runners digest whatever survived and the
// figure functions propagate the fault.
func run(eng search.Engine, prob objective.Problem, opts search.Options) (*search.Result, error) {
	res, err := search.Run(context.Background(), eng, prob, opts)
	if res == nil {
		res = &search.Result{}
	}
	return res, err
}

// runsErr surfaces the first per-replicate fault, so a figure reports a
// degraded sweep instead of silently plotting quarantined individuals.
func runsErr(outs []runOut) error {
	for i := range outs {
		if outs[i].err != nil {
			return fmt.Errorf("expt: %s replicate %d: %w", outs[i].algo, i, outs[i].err)
		}
	}
	return nil
}

// firstErr is runsErr for sweeps that keep a bare error slice.
func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("expt: replicate %d: %w", i, err)
		}
	}
	return nil
}

// runTPG runs the NSGA-II baseline for `total` iterations.
func (c *Config) runTPG(spec sizing.Spec, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	start := time.Now()
	res, err := run(new(nsga2.Engine), prob, search.Options{
		PopSize:     c.PopSize,
		Generations: total,
		Seed:        seed,
	})
	out := digest("TPG", res.Front, prob.Count(), time.Since(start), 0)
	out.err = err
	return out
}

// runSACGA runs SACGA with m partitions and a total iteration budget: phase
// I is bounded by the paper's 200-iteration allocation (scaled), and phase
// II consumes the remainder (the engine's derived-span mode), keeping
// evaluation budgets comparable with TPG.
func (c *Config) runSACGA(spec sizing.Spec, m, total int, seed int64) runOut {
	return c.runSACGAShaped("SACGA", spec, m, total, seed, nil)
}

// runSACGAShaped is runSACGA with an explicit participation shape (nil
// selects the default) and the label its digest carries.
func (c *Config) runSACGAShaped(algo string, spec sizing.Spec, m, total int, seed int64, shape *sacga.Shape) runOut {
	prob := objective.NewCounter(c.problem(spec))
	clLo, clHi := sizing.ObjectiveRangeCL()
	gentMax := min(c.iters(200), total/4+1)
	start := time.Now()
	eng := new(sacga.Engine)
	res, err := run(eng, prob, search.Options{
		PopSize:     c.PopSize,
		Generations: total,
		Seed:        seed,
		Extra: &sacga.Params{
			Partitions:         m,
			PartitionObjective: 1,
			PartitionLo:        clLo,
			PartitionHi:        clHi,
			GentMax:            gentMax,
			Shape:              shape,
		},
	})
	out := digest(algo, res.Front, prob.Count(), time.Since(start), eng.GentUsed())
	out.err = err
	return out
}

// runMESACGA runs MESACGA with the given schedule; the post-phase-I budget
// is split evenly across phases (the engine's derived-span mode).
func (c *Config) runMESACGA(spec sizing.Spec, schedule []int, total int, seed int64) runOut {
	prob := objective.NewCounter(c.problem(spec))
	clLo, clHi := sizing.ObjectiveRangeCL()
	gentMax := min(c.iters(200), total/4+1)
	start := time.Now()
	eng := new(mesacga.Engine)
	res, err := run(eng, prob, search.Options{
		PopSize:     c.PopSize,
		Generations: total,
		Seed:        seed,
		Extra: &mesacga.Params{
			Schedule:           schedule,
			PartitionObjective: 1,
			PartitionLo:        clLo,
			PartitionHi:        clHi,
			GentMax:            gentMax,
		},
	})
	out := digest("MESACGA", res.Front, prob.Count(), time.Since(start), eng.GentUsed())
	out.err = err
	return out
}

// runMESACGASpanned runs MESACGA with an exact per-phase span (fig. 10's
// x-parameter) instead of a total budget, returning the global front
// recorded at the end of each phase.
func (c *Config) runMESACGASpanned(spec sizing.Spec, schedule []int, span int, seed int64) ([]ga.Population, error) {
	prob := objective.NewCounter(c.problem(spec))
	clLo, clHi := sizing.ObjectiveRangeCL()
	eng := new(mesacga.Engine)
	_, err := run(eng, prob, search.Options{
		PopSize: c.PopSize,
		Seed:    seed,
		Extra: &mesacga.Params{
			Schedule:           schedule,
			PartitionObjective: 1,
			PartitionLo:        clLo,
			PartitionHi:        clHi,
			GentMax:            c.iters(200),
			Span:               span,
		},
	})
	return eng.PhaseFronts(), err
}

// parallelRuns executes n replicate jobs across the shared worker pool,
// bounded by c.Workers. Each job derives its own RNG stream from the job
// index (runners pass seed+i to the optimizers), and results are written to
// index-addressed slots, so the outcome is bit-identical no matter how the
// pool schedules the jobs — including fully sequential execution.
func (c *Config) parallelRuns(n int, job func(i int)) {
	workers := c.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	ga.SharedPool().RunLimit(n, workers, job)
}

// frontSeries converts a digest to a plot series in (pF, mW) axes.
func frontSeries(out runOut) plot.Series {
	s := plot.Series{Name: out.algo}
	for _, p := range out.pts {
		s.X = append(s.X, p.X*1e12)
		s.Y = append(s.Y, p.Y*1e3)
	}
	return s
}

// writeFrontArtifacts emits the CSV and ASCII chart of a set of fronts.
func writeFrontArtifacts(rep *Report, c Config, name, title string, outs []runOut) error {
	if c.OutDir == "" {
		return nil
	}
	series := make([]plot.Series, len(outs))
	for i, o := range outs {
		series[i] = frontSeries(o)
	}
	csvPath := filepath.Join(c.OutDir, name+".csv")
	if err := plot.WriteSeriesCSV(csvPath, series); err != nil {
		return err
	}
	rep.Files = append(rep.Files, csvPath)
	chartPath := filepath.Join(c.OutDir, name+".txt")
	ch := plot.Chart{
		Title:  title,
		XLabel: "Load Capacitance (pF)",
		YLabel: "P(mW)",
	}
	if err := ch.RenderToFile(chartPath, series); err != nil {
		return err
	}
	rep.Files = append(rep.Files, chartPath)
	return nil
}

// clusterFraction is the share of front points with CL in [4,5] pF — the
// fig. 2 diagnostic.
func clusterFraction(pts []hypervolume.Point2) float64 {
	if len(pts) == 0 {
		return 0
	}
	n := 0
	for _, p := range pts {
		if p.X >= 4e-12 && p.X <= 5e-12 {
			n++
		}
	}
	return float64(n) / float64(len(pts))
}
