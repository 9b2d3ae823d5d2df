// Command benchdelta gates benchmark regressions in CI. It parses `go test
// -bench` output (a file or stdin), compares the guarded benchmarks against
// a checked-in BENCH_*.json baseline, and exits non-zero when a gate fails:
// ns/op beyond -max-regress, or any allocs/op growth.
//
// Usage:
//
//	go test -run '^$' -bench 'PopulationEval' -benchmem . | \
//	    go run ./cmd/benchdelta -baseline BENCH_pr6.json -check BenchmarkPopulationEvalPooled
//
//	go run ./cmd/benchdelta -baseline BENCH_pr6.json -input bench.out -record BENCH_new.json
//
// -record rewrites the baseline's benchmark table from the current run
// (keeping its comment/environment) instead of gating.
//
// -speedup 'SlowBench/FastBench:min' gates an in-job ratio between two
// rows of the current run — the machine-independent form for
// parallel-vs-sequential pairs. Combine with an empty -check to gate only
// the ratio, with no baseline comparison:
//
//	go test -run '^$' -bench ScheduledIslands -benchmem ./internal/sched | \
//	    go run ./cmd/benchdelta -check '' \
//	    -speedup 'BenchmarkScheduledIslandsSequential/BenchmarkScheduledIslands:1.5'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sacga/internal/benchdelta"
)

func main() {
	var (
		baseline   = flag.String("baseline", "BENCH_pr6.json", "checked-in baseline JSON")
		input      = flag.String("input", "-", "bench output file ('-' = stdin)")
		check      = flag.String("check", "BenchmarkPopulationEvalPooled", "comma-separated benchmarks to gate ('all' = every baseline row present)")
		maxRegress = flag.Float64("max-regress", benchdelta.DefaultMaxRegress, "maximum tolerated fractional ns/op regression (applied after calibration)")
		calibrate  = flag.String("calibrate", "", "benchmark whose current/baseline ns ratio normalizes machine speed before gating ('' = compare raw)")
		record     = flag.String("record", "", "write current results over the baseline table to this path and exit")
		speedup    = flag.String("speedup", "", "comma-separated in-job ratio gates 'SlowBench/FastBench:min' (e.g. parallel vs sequential pairs; no baseline involved)")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	current, err := benchdelta.Parse(in)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark rows found in %s", *input))
	}

	// Speedup gates compare two rows of the current run against each other
	// — no baseline required — so they resolve before the baseline loads
	// and can run standalone with -check ''.
	failedSpeedup := false
	if *speedup != "" {
		for _, raw := range strings.Split(*speedup, ",") {
			spec, err := benchdelta.ParseSpeedupSpec(strings.TrimSpace(raw))
			if err != nil {
				fatal(err)
			}
			ratio, err := benchdelta.Speedup(current, spec.Slow, spec.Fast)
			if err != nil {
				fatal(err)
			}
			status := "ok"
			if ratio < spec.Min {
				status = fmt.Sprintf("FAIL: below the %.2fx floor", spec.Min)
				failedSpeedup = true
			}
			fmt.Printf("benchdelta: speedup %s over %s: %.2fx %s\n", spec.Fast, spec.Slow, ratio, status)
		}
	}
	if *check == "" && *record == "" {
		if failedSpeedup {
			os.Exit(1)
		}
		return
	}

	base, err := benchdelta.LoadBaseline(*baseline)
	if err != nil {
		fatal(err)
	}

	if *record != "" {
		base.Benchmarks = current
		if err := base.Write(*record); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdelta: recorded %d benchmarks to %s\n", len(current), *record)
		return
	}

	var names []string
	if *check != "all" {
		for _, n := range strings.Split(*check, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	var deltas []benchdelta.Delta
	if *calibrate != "" {
		var scale float64
		deltas, scale, err = benchdelta.CompareCalibrated(base, current, names, *maxRegress, *calibrate)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("benchdelta: calibration %s scale %.3f (current machine vs baseline)\n", *calibrate, scale)
	} else {
		deltas = benchdelta.Compare(base, current, names, *maxRegress, 1)
	}
	for _, d := range deltas {
		status := "ok"
		detail := ""
		if d.Baseline != nil && d.Current != nil {
			detail = fmt.Sprintf(" ns/op %.0f -> %.0f (%+.1f%%), allocs %.0f -> %.0f",
				d.Baseline.NsPerOp, d.Current.NsPerOp, (d.Ratio-1)*100,
				d.Baseline.AllocsPerOp, d.Current.AllocsPerOp)
		}
		if len(d.Failures) > 0 {
			status = "FAIL: " + strings.Join(d.Failures, "; ")
		}
		fmt.Printf("benchdelta: %-40s %s%s\n", d.Name, status, detail)
	}
	if benchdelta.Failed(deltas) || failedSpeedup {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdelta: %v\n", err)
	os.Exit(1)
}
