// Command expts regenerates the paper's figures. Each experiment writes
// CSV data plus an ASCII chart into the output directory and prints its
// headline numbers.
//
// Usage:
//
//	expts -fig all                    # every experiment at paper scale
//	expts -fig fig8,fig11 -scale 0.2  # selected figures, reduced budget
//	expts -list                       # enumerate experiments
//
// At -scale 1 (default) iteration budgets match the paper (pop 100,
// 800–1250 iterations — several minutes of CPU in total); runs parallelize
// across -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sacga/internal/expt"
	"sacga/internal/search"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		out     = flag.String("out", "results", "output directory for CSV/chart artifacts ('' disables)")
		seed    = flag.Int64("seed", 42, "master random seed")
		scale   = flag.Float64("scale", 1.0, "budget scale (1.0 = paper iteration counts)")
		pop     = flag.Int("pop", 100, "GA population size")
		seeds   = flag.Int("seeds", 1, "independent repetitions to average")
		robust  = flag.Int("robust", 8, "Monte-Carlo robustness samples (0 disables the constraint)")
		workers = flag.Int("workers", 0, "parallel runs (0 = NumCPU)")
		cache   = flag.Bool("cache", true, "skip experiments already completed for this config (cache file in -out; requires -out)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "expts: unexpected arguments: %v (select experiments with -fig)\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, id := range expt.IDs() {
			fmt.Printf("%-7s %s\n", id, expt.Title(id))
		}
		fmt.Println("\nsearch engines:")
		for _, e := range search.Registered() {
			if e.Extension != "" {
				fmt.Printf("  %-12s params: %s\n", e.Name, e.Extension)
			} else {
				fmt.Printf("  %s\n", e.Name)
			}
		}
		return
	}

	cfg := expt.Config{
		OutDir:        *out,
		Seed:          *seed,
		Scale:         *scale,
		PopSize:       *pop,
		Seeds:         *seeds,
		RobustSamples: *robust,
		Workers:       *workers,
	}
	if *cache && *out != "" {
		c, err := expt.OpenCache(filepath.Join(*out, "expts-cache.json"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "expts: %v (running without cache)\n", err)
		} else {
			cfg.Cache = c
		}
	}

	var ids []string
	if *figs == "all" {
		ids = expt.IDs()
	} else {
		ids = strings.Split(*figs, ",")
	}
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	// Experiments run concurrently on the shared worker pool (bounded by
	// -workers) and report in the requested order.
	failed := false
	for _, out := range expt.RunAll(ids, cfg) {
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "expts: %s: %v\n", out.ID, out.Err)
			failed = true
			continue
		}
		rep := out.Report
		note := ""
		if rep.Cached {
			note = " [cached]"
		}
		fmt.Printf("== %s — %s (%.1fs)%s\n", rep.ID, rep.Title, rep.Elapsed.Seconds(), note)
		for _, line := range rep.Summary {
			fmt.Printf("   %s\n", line)
		}
		keys := make([]string, 0, len(rep.Values))
		for k := range rep.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("   %-28s %.4g\n", k, rep.Values[k])
		}
		for _, f := range rep.Files {
			fmt.Printf("   wrote %s\n", f)
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
