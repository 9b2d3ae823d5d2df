package sizing

import (
	"math"
	"sync"
	"testing"

	"sacga/internal/objective"
	"sacga/internal/opamp"
	"sacga/internal/process"
	"sacga/internal/rng"
	"sacga/internal/scint"
	"sacga/internal/yield"
)

func randomPopulation(seed int64, n int) [][]float64 {
	s := rng.New(seed)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, NumGenes)
		for g := range x {
			// Include out-of-box genes so the clamp paths are compared too.
			x[g] = s.Uniform(-0.1, 1.1)
		}
		xs[i] = x
	}
	return xs
}

// robustProblem is the paper problem with an 8-sample Monte-Carlo
// estimator, the sample count cmd/expts and cmd/sacga default to.
func robustProblem() *Problem {
	return New(process.Default018(), PaperSpec(), WithRobustness(yield.NewEstimator(5, 8)))
}

// nearFeasiblePopulation returns n designs clustered on the Monte-Carlo
// gate, which fewer than 1 in 100 uniform random designs pass: a seeded
// random search collects anchors whose nominal corner sweep passes
// nearFeasible, and each member is an anchor plus a small gaussian jitter,
// so most lanes reach the Monte-Carlo pass (with full and partial yields)
// and a few fall back outside the gate.
func nearFeasiblePopulation(seed int64, n int) [][]float64 {
	p := New(process.Default018(), PaperSpec())
	s := rng.New(seed)
	var anchors [][]float64
	for len(anchors) < 8 {
		x := make([]float64, NumGenes)
		for g := range x {
			x[g] = s.Float64()
		}
		if nearFeasible(p.Evaluate(x).Violations) {
			anchors = append(anchors, x)
		}
	}
	xs := make([][]float64, n)
	for i := range xs {
		a := anchors[i%len(anchors)]
		x := make([]float64, NumGenes)
		for g := range x {
			x[g] = a[g] + 0.02*s.Norm()
		}
		xs[i] = x
	}
	return xs
}

// assertBatchMatchesScalar compares EvaluateBatch against per-individual
// Evaluate bit-for-bit.
func assertBatchMatchesScalar(t *testing.T, p *Problem, xs [][]float64) {
	t.Helper()
	out := make([]objective.Result, len(xs))
	p.EvaluateBatch(xs, out)
	for i, x := range xs {
		want := p.Evaluate(x)
		got := out[i]
		if len(got.Objectives) != len(want.Objectives) || len(got.Violations) != len(want.Violations) {
			t.Fatalf("individual %d: result shape mismatch", i)
		}
		for k := range want.Objectives {
			if got.Objectives[k] != want.Objectives[k] {
				t.Fatalf("individual %d objective %d: batch %v != scalar %v",
					i, k, got.Objectives[k], want.Objectives[k])
			}
		}
		for k := range want.Violations {
			if got.Violations[k] != want.Violations[k] {
				t.Fatalf("individual %d violation %s: batch %v != scalar %v",
					i, ConsName(k), got.Violations[k], want.Violations[k])
			}
		}
	}
}

func TestEvaluateBatchBitIdenticalToEvaluate(t *testing.T) {
	p := New(process.Default018(), PaperSpec())
	for _, seed := range []int64{1, 2, 3, 4} {
		assertBatchMatchesScalar(t, p, randomPopulation(seed, 37))
	}
}

func TestEvaluateBatchBitIdenticalWithRobustness(t *testing.T) {
	p := robustProblem()
	full, partial := 0, 0
	for _, tc := range []struct {
		seed int64
		n    int
	}{{11, 37}, {12, 64}, {13, 29}} {
		xs := nearFeasiblePopulation(tc.seed, tc.n)
		assertBatchMatchesScalar(t, p, xs)

		// The populations must exercise the Monte-Carlo pass, not just the
		// gate in front of it: most lanes reach it, and both full and
		// partial yields occur among them.
		reached := 0
		for _, x := range xs {
			if !nearFeasible(p.Evaluate(x).Violations) {
				continue
			}
			reached++
			switch r := p.Robustness(x); {
			case r == 1:
				full++
			case r > 0 && r < p.Spec().RobustMin:
				partial++
			}
		}
		if 2*reached < len(xs) {
			t.Fatalf("seed %d: %d of %d lanes reach the Monte-Carlo pass, want at least half", tc.seed, reached, len(xs))
		}
	}
	if full == 0 || partial == 0 {
		t.Fatalf("Monte-Carlo lanes: %d at full yield, %d at partial yield below RobustMin; want both", full, partial)
	}
}

// TestSampleLanesMatchScalarSamples compares the batch path's Monte-Carlo
// performance planes, sample by sample and field by field, with the scalar
// estimator's evaluation of the same sample (Tech.Perturb, perturbDesign
// and one WarmState threaded per design). The violation comparisons above
// see a sample only through its pass/fail outcome, which a wrong mismatch
// scale or warm start rarely flips.
func TestSampleLanesMatchScalarSamples(t *testing.T) {
	p := robustProblem()
	xs := nearFeasiblePopulation(15, 21)
	sc := getBatchScratch(len(xs))
	defer putBatchScratch(sc)
	sc.decode(xs)
	dl := sc.sampleLanes(len(xs))
	ws := make([]opamp.WarmState, len(xs))
	for k := 0; k < p.rob.Samples(); k++ {
		p.evalSample(sc, dl, k)
		z := p.rob.Sample(k)
		tech := p.Tech().Perturb(z[:])
		for i, x := range xs {
			want := scint.EvaluateWarm(&tech, perturbDesign(p.Decode(x), z[:]), p.System(), &ws[i])
			got := &sc.perf
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"Power", got.Power[i], want.Power},
				{"Area", got.Area[i], want.Area},
				{"DRdB", got.DRdB[i], want.DRdB},
				{"OutputRange", got.OutputRange[i], want.OutputRange},
				{"SettleTime", got.SettleTime[i], want.SettleTime},
				{"SettleErr", got.SettleErr[i], want.SettleErr},
				{"PhaseMarginDeg", got.PhaseMarginDeg[i], want.PhaseMarginDeg},
				{"WorstSatMargin", got.WorstSatMargin[i], want.WorstSatMargin},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Fatalf("sample %d lane %d %s: batch %v != scalar %v", k, i, f.name, f.got, f.want)
				}
			}
			if got.BiasOK.Get(i) != want.BiasOK {
				t.Fatalf("sample %d lane %d BiasOK: batch %v != scalar %v", k, i, got.BiasOK.Get(i), want.BiasOK)
			}
		}
	}
}

func TestEvaluateBatchConcurrentRobust(t *testing.T) {
	// One robust problem shared by several goroutines, as the evaluation
	// pool shares it: the sample table is read-only after New and every
	// call takes its own scratch, so each batch must match the scalar path.
	p := robustProblem()
	xs := nearFeasiblePopulation(21, 76)
	want := make([]objective.Result, len(xs))
	for i, x := range xs {
		want[i] = p.Evaluate(x)
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(xs); lo += 19 {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			out := make([]objective.Result, hi-lo)
			for rep := 0; rep < 3; rep++ {
				p.EvaluateBatch(xs[lo:hi], out)
				for i := range out {
					for k, v := range want[lo+i].Violations {
						if out[i].Violations[k] != v {
							t.Errorf("individual %d violation %s: batch %v != scalar %v", lo+i, ConsName(k), out[i].Violations[k], v)
							return
						}
					}
				}
			}
		}(lo, lo+19)
	}
	wg.Wait()
}

func TestEvaluateBatchRobustnessWithoutSamples(t *testing.T) {
	// A zero-sample estimator scores every gated design at full yield, as
	// RobustnessWithDesign does.
	p := New(process.Default018(), PaperSpec(), WithRobustness(yield.NewEstimator(5, 0)))
	assertBatchMatchesScalar(t, p, nearFeasiblePopulation(14, 19))
}

func TestEvaluateBatchBitIdenticalRestrictedCorners(t *testing.T) {
	// No TT corner: the nominal objective must match the scalar path's
	// zero-valued nominal in both paths.
	p := New(process.Default018(), PaperSpec(),
		WithCorners(process.FF, process.SS))
	assertBatchMatchesScalar(t, p, randomPopulation(21, 16))
}

func TestEvaluateBatchReusesProvidedSlices(t *testing.T) {
	p := New(process.Default018(), PaperSpec())
	xs := randomPopulation(31, 8)
	out := make([]objective.Result, len(xs))
	for i := range out {
		out[i].Objectives = make([]float64, 2)
		out[i].Violations = make([]float64, NumCons)
		out[i].Violations[0] = 99 // stale state must be cleared
	}
	keepObj := out[3].Objectives
	p.EvaluateBatch(xs, out)
	if &keepObj[0] != &out[3].Objectives[0] {
		t.Fatal("EvaluateBatch reallocated a correctly sized Objectives slice")
	}
	if out[0].Violations[0] == 99 {
		t.Fatal("EvaluateBatch did not reset stale violations")
	}
}

func TestEvaluateBatchEmpty(t *testing.T) {
	p := New(process.Default018(), PaperSpec())
	p.EvaluateBatch(nil, nil) // must not panic
}

func TestEvaluateBatchSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
		xs   [][]float64
	}{
		{"plain", New(process.Default018(), PaperSpec()), randomPopulation(41, 24)},
		{"robust", robustProblem(), nearFeasiblePopulation(41, 64)},
	} {
		out := make([]objective.Result, len(tc.xs))
		tc.p.EvaluateBatch(tc.xs, out) // warm scratch and result buffers
		avg := testing.AllocsPerRun(5, func() { tc.p.EvaluateBatch(tc.xs, out) })
		if avg != 0 {
			t.Fatalf("%s: EvaluateBatch allocates %.1f objects/run at steady state, want 0", tc.name, avg)
		}
	}
}
