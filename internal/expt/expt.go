// Package expt is the reproduction harness: one runner per figure of the
// paper's evaluation (figs. 2, 4, 5, 6, 8, 9, 10, 11) plus the §5 trends
// study over twenty graded specifications, a design-choice ablation and a
// comparison of the multi-engine schedulers. Each runner executes the
// required optimizer runs and returns a Report with its headline numbers;
// the figure runners also write CSV data and an ASCII chart into an output
// directory.
//
// Every optimizer run takes one path: Config.run drives an engine through
// search.Run and digests its front, and Config.sweep runs a figure's
// independent runs on the shared worker pool. A runner keeps only what is
// its own: which variants it runs, which seed each run gets, and how it
// reduces the digests to Report.Values.
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
	algo    string
	pts     []hypervolume.Point2 // feasible front, reported (CL, Power) SI
	hv      float64              // paper staircase metric, 0.1 mW·pF units
	hvCover float64              // coverage-pinned variant, same units
	minCL   float64              // smallest feasible front CL (F)
	wall    time.Duration
	err     error // evaluation fault, if the run degraded (digest still valid)
}

// run drives eng on spec through search.Run and digests its front under
// the label algo. Evaluation faults do not crash the harness: the
// best-so-far front comes back alongside the typed error, so a degraded
// run is digested too and sweep propagates its fault.
func (c *Config) run(algo string, spec sizing.Spec, eng search.Engine, opts search.Options) runOut {
	prob := c.problem(spec)
	start := time.Now()
	res, err := search.Run(context.Background(), eng, prob, opts)
	out := runOut{algo: algo, wall: time.Since(start), err: err, minCL: math.Inf(1)}
	if res != nil {
		out.pts = frontPoints(res.Front)
	}
	for _, p := range out.pts {
		out.minCL = math.Min(out.minCL, p.X)
	}
	out.hv = hypervolume.PaperMetric(out.pts) / hvUnit
	out.hvCover = hypervolume.PaperMetricCovering(out.pts, sizing.CLMax, powerCeiling) / hvUnit
	return out
}

// sweep runs a figure's n independent optimizer runs on the shared worker
// pool, at most c.Workers at a time, and returns their digests by run
// index with the lowest-index fault, so a figure reports a degraded sweep
// instead of silently plotting quarantined individuals. Each run derives
// its seed from its index and writes only its own slot, so the digests are
// bit-identical however the pool schedules the runs, sequential included.
func (c *Config) sweep(n int, run func(i int) runOut) ([]runOut, error) {
	outs := make([]runOut, n)
	ga.SharedPool().RunLimit(n, c.Workers, func(i int) { outs[i] = run(i) })
	for i, o := range outs {
		if o.err != nil {
			return outs, fmt.Errorf("expt: %s replicate %d: %w", o.algo, i, o.err)
		}
	}
	return outs, nil
}

// opts is a run of total iterations from seed at the configured population.
func (c *Config) opts(total int, seed int64, extra any) search.Options {
	return search.Options{PopSize: c.PopSize, Generations: total, Seed: seed, Extra: extra}
}

// sacgaParams partitions the load axis (objective 1, over the sizing CL
// range) into m slots. Phase I is bounded by the paper's 200-iteration
// allocation (scaled) and by a quarter of the total budget; phase II
// consumes the remainder (the engine's derived-span mode), keeping
// evaluation budgets comparable with TPG.
func (c *Config) sacgaParams(m, total int) *sacga.Params {
	lo, hi := sizing.ObjectiveRangeCL()
	return &sacga.Params{Partitions: m, PartitionObjective: 1, PartitionLo: lo, PartitionHi: hi,
		GentMax: min(c.iters(200), total/4+1)}
}

// mesacgaParams is sacgaParams for MESACGA on its default schedule: the
// post-phase-I budget is split evenly across the phases.
func (c *Config) mesacgaParams(total int) *mesacga.Params {
	lo, hi := sizing.ObjectiveRangeCL()
	return &mesacga.Params{PartitionObjective: 1, PartitionLo: lo, PartitionHi: hi,
		GentMax: min(c.iters(200), total/4+1)}
}

// runTPG runs the NSGA-II baseline for total iterations.
func (c *Config) runTPG(spec sizing.Spec, total int, seed int64) runOut {
	return c.run("TPG", spec, new(nsga2.Engine), c.opts(total, seed, nil))
}

// runSACGA runs SACGA with m load partitions for total iterations.
func (c *Config) runSACGA(spec sizing.Spec, m, total int, seed int64) runOut {
	return c.run("SACGA", spec, new(sacga.Engine), c.opts(total, seed, c.sacgaParams(m, total)))
}

// runMESACGA runs MESACGA on its default schedule for total iterations.
func (c *Config) runMESACGA(spec sizing.Spec, total int, seed int64) runOut {
	return c.run("MESACGA", spec, new(mesacga.Engine), c.opts(total, seed, c.mesacgaParams(total)))
}

// circuitPoint projects a feasible individual onto the reported
// (CL, Power) plane; an infeasible one has no point.
func circuitPoint(ind *ga.Individual) (hypervolume.Point2, bool) {
	if !ind.Feasible() {
		return hypervolume.Point2{}, false
	}
	cl, pw := sizing.ReportedPoint(ind.Objectives)
	return hypervolume.Point2{X: cl, Y: pw}, true
}

// frontPoints is the feasible part of a front on the reported plane.
func frontPoints(front ga.Population) []hypervolume.Point2 {
	pts := make([]hypervolume.Point2, 0, len(front))
	for _, ind := range front {
		if p, ok := circuitPoint(ind); ok {
			pts = append(pts, p)
		}
	}
	return pts
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

// writeChart renders series as the ASCII chart name.txt in c.OutDir.
func writeChart(rep *Report, c Config, name string, ch plot.Chart, series []plot.Series) error {
	path := filepath.Join(c.OutDir, name+".txt")
	if err := ch.RenderToFile(path, series); err != nil {
		return err
	}
	rep.Files = append(rep.Files, path)
	return nil
}

// writeCurves emits a curve figure: its table as name.csv and its series
// as a connected-line chart. An empty OutDir writes nothing.
func writeCurves(rep *Report, c Config, name string, header []string, rows [][]float64, ch plot.Chart, series []plot.Series) error {
	if c.OutDir == "" {
		return nil
	}
	path := filepath.Join(c.OutDir, name+".csv")
	if err := plot.WriteCSV(path, header, rows); err != nil {
		return err
	}
	rep.Files = append(rep.Files, path)
	ch.Connect = true
	return writeChart(rep, c, name, ch, series)
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
	path := filepath.Join(c.OutDir, name+".csv")
	if err := plot.WriteSeriesCSV(path, series); err != nil {
		return err
	}
	rep.Files = append(rep.Files, path)
	return writeChart(rep, c, name, plot.Chart{Title: title, XLabel: "Load Capacitance (pF)", YLabel: "P(mW)"}, series)
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
