package expt

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestRunAllPreservesOrderAndReportsErrors(t *testing.T) {
	cfg := smallCfg(t)
	cfg.Scale = 0.02
	cfg.PopSize = 20
	ids := []string{"fig4", "nope", "fig4"}
	outs := RunAll(ids, cfg)
	if len(outs) != len(ids) {
		t.Fatalf("got %d outcomes for %d ids", len(outs), len(ids))
	}
	for i, out := range outs {
		if out.ID != ids[i] {
			t.Fatalf("outcome %d is %q, want %q", i, out.ID, ids[i])
		}
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("fig4 failed: %v %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("unknown id must surface an error")
	}
	if err := FirstError(outs); err == nil {
		t.Fatal("FirstError must report the failed experiment")
	}
}

// TestWorkerCountInvariance is the end-to-end determinism check on the
// replicate runner: the same experiment must produce bit-identical headline
// numbers whether its replicates run sequentially or fan out across the
// pool.
func TestWorkerCountInvariance(t *testing.T) {
	base := Config{
		Seed:    7,
		Scale:   0.02,
		PopSize: 24,
		Seeds:   3,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 4

	for _, id := range []string{"fig2", "fig5"} {
		repSeq, err := Run(id, seq)
		if err != nil {
			t.Fatal(err)
		}
		repPar, err := Run(id, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(repSeq.Values) != len(repPar.Values) {
			t.Fatalf("%s: value sets differ in size", id)
		}
		for k, v := range repSeq.Values {
			pv, ok := repPar.Values[k]
			if !ok {
				t.Fatalf("%s: parallel run missing %q", id, k)
			}
			// Exact equality: replicate seeds are index-derived and
			// aggregation order is fixed, so scheduling must not leak in.
			if v != pv && !(math.IsInf(v, 1) && math.IsInf(pv, 1)) {
				t.Fatalf("%s: %q = %v sequential vs %v parallel", id, k, v, pv)
			}
		}
	}
}

// TestSweepReturnsLowestIndexFault pins the sweep's fault contract: every
// run is digested, degraded ones included, and the error is the
// lowest-index fault, naming its variant and run index, however the pool
// schedules the runs.
func TestSweepReturnsLowestIndexFault(t *testing.T) {
	faults := map[int]error{1: errors.New("fault one"), 3: errors.New("fault three")}
	for _, workers := range []int{1, 4} {
		c := Config{Workers: workers}
		outs, err := c.sweep(5, func(i int) runOut {
			return runOut{algo: fmt.Sprintf("variant%d", i), hv: float64(i), err: faults[i]}
		})
		if !errors.Is(err, faults[1]) {
			t.Fatalf("workers=%d: error %v, want the fault of run 1", workers, err)
		}
		if want := "expt: variant1 replicate 1: fault one"; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
		if len(outs) != 5 {
			t.Fatalf("workers=%d: %d digests, want 5", workers, len(outs))
		}
		for i, o := range outs {
			if o.hv != float64(i) {
				t.Fatalf("workers=%d: digest %d holds run %v's value", workers, i, o.hv)
			}
		}
	}
}
