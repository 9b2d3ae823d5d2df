package expt

import (
	"fmt"

	"sacga/internal/ga"
)

// Outcome pairs one experiment id with its report (or error) from a
// concurrent sweep.
type Outcome struct {
	ID     string
	Report *Report
	Err    error
}

// RunAll executes the given experiments concurrently on the shared worker
// pool, bounded by c.Workers, and returns the outcomes in the input order.
// Experiments and their internal replicate fan-outs share one pool, so a
// whole figure sweep runs on a fixed set of goroutines sized to the
// machine; nested submission is deadlock-free because pool callers execute
// their own jobs when all workers are busy.
//
// Each experiment derives every stochastic stream from c.Seed and its own
// replicate indices, so the outcomes are bit-identical to running the same
// ids sequentially, in any order, at any worker count.
//
// With c.Cache set, experiments whose fingerprint already completed are
// served from the cache without running (their reports carry Cached=true),
// and every fresh success is stored back — re-running a sweep after a
// partial failure recomputes only what is missing.
func RunAll(ids []string, c Config) []Outcome {
	c.normalize()
	outs := make([]Outcome, len(ids))
	ga.SharedPool().RunLimit(len(ids), c.Workers, func(i int) {
		if c.Cache != nil {
			if rep, ok := c.Cache.Lookup(ids[i], c); ok {
				outs[i] = Outcome{ID: ids[i], Report: rep}
				return
			}
		}
		rep, err := Run(ids[i], c)
		if err == nil && c.Cache != nil {
			if serr := c.Cache.Store(ids[i], c, rep); serr != nil {
				// A cache write failure must not fail the experiment; it
				// only costs a recomputation next time. Surface it in the
				// returned report — on a copy, so the note is never
				// persisted into the cache entry Store just registered.
				cp := *rep
				cp.Summary = append(append([]string(nil), rep.Summary...),
					fmt.Sprintf("result-cache store failed: %v", serr))
				rep = &cp
			}
		}
		outs[i] = Outcome{ID: ids[i], Report: rep, Err: err}
	})
	return outs
}

// FirstError returns the first failed outcome's error, annotated with its
// experiment id, or nil when every experiment succeeded.
func FirstError(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("expt %s: %w", o.ID, o.Err)
		}
	}
	return nil
}
