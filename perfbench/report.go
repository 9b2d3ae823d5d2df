package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same two lists, with each metric's direction and bound;
// TestCatalogueMatchesBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, always measured
// untraced. latency_ms is the workload's unit of waiting: one generation
// (reproduce), one epoch (shard-zdt1), one job from submission until the
// client sees it end (serve-mix).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"evals_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced pass's per-layer metrics. A layer a workload
// does not reach reports 0 in the JSON line and "n/a" in the report.
var perLayer = []metricDef{
	{"objective.evals", "count"},
	{"objective.busy_s", "s"},
	{"objective.us_per_eval", "us"},
	{"objective.quarantined", "count"},
	{"search.step_ms_p50", "ms"},
	{"search.self_ms_p50", "ms"},
	{"search.ckpt_bytes", "bytes"},
	{"search.ckpt_encode_ms_p50", "ms"},
	{"search.ckpt_decode_ms_p50", "ms"},
	{"search.restore_ms_p50", "ms"},
	{"search.replay_draws_last", "count"},
	{"expt.run_s_p50", "s"},
	{"expt.parallel_eff", "ratio"},
	{"shard.step_ms_p50", "ms"},
	{"shard.pool_view_ms_p50", "ms"},
	{"shard.requests", "count"},
	{"shard.retries", "count"},
	{"shard.worker_busy_ms_p50", "ms"},
	{"shard.worker_eval_ms_p50", "ms"},
	{"shard.coord_self_ms_p50", "ms"},
	{"shard.inproc_epoch_ms_p50", "ms"},
	{"fleet.bytes_per_epoch", "bytes"},
	{"fleet.dials", "count"},
	{"fleet.served_imbalance", "ratio"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_p90", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.status_ms_p50", "ms"},
	{"serve.eval_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// outcome is one workload run: operations attempted and failed, output
// checks, metrics, and report notes.
type outcome struct {
	attempted, failed int64
	checks            []check
	e2e, layers       map[string]float64
	notes             []string
}

// check is one output check; err is nil when it passed.
type check struct {
	what string
	err  error
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) check(what string, err error) { o.checks = append(o.checks, check{what, err}) }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// correct reports whether at least one check ran and every check passed.
func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if c.err != nil {
			return false
		}
	}
	return len(o.checks) > 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the JSON line: every end-to-end metric, or traced every
// per-layer metric.
func (o *outcome) result(traced bool) result {
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layers
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	return result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// print writes the human-readable report.
func (o *outcome) print(w io.Writer, traced bool) {
	section := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(w, "    %-26s %14.6g %s\n", d.name, v, d.unit)
			} else {
				fmt.Fprintf(w, "    %-26s %14s\n", d.name, "n/a")
			}
		}
	}
	section("end-to-end (untraced)", endToEnd, o.e2e)
	if traced {
		section("per-layer (traced)", perLayer, o.layers)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "    %-26s %14.6g (%d of %d operations)\n", "failed_frac", frac, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, c := range o.checks {
		if c.err != nil {
			fmt.Fprintf(w, "  FAIL %s: %v\n", c.what, c.err)
		} else {
			fmt.Fprintf(w, "  ok   %s\n", c.what)
		}
	}
}

//go:embed manifest.json
var manifestJSON []byte

// defaultSeed is the seed whose reference outputs manifest.json records.
// For any other seed every reference is recomputed in the run.
const defaultSeed = 1

// reference decodes workload's recorded reference output into v. It
// reports false when seed is not the default or nothing is recorded.
func reference(workload string, seed int64, v any) (bool, error) {
	if seed != defaultSeed {
		return false, nil
	}
	var m struct {
		Workloads map[string]struct {
			Reference json.RawMessage `json:"reference"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return false, fmt.Errorf("manifest.json: %w", err)
	}
	raw := m.Workloads[workload].Reference
	if len(raw) == 0 || string(raw) == "null" {
		return false, nil
	}
	return true, json.Unmarshal(raw, v)
}

// match compares two digests.
func match(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

// jsonString renders v for the report (references are copied from it).
func jsonString(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
