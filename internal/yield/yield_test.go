package yield

import (
	"testing"

	"sacga/internal/opamp"
	"sacga/internal/process"
	"sacga/internal/scint"
)

func refDesign() scint.Design {
	const um, pf = 1e-6, 1e-12
	return scint.Design{
		Amp: opamp.Sizing{
			W1: 60 * um, L1: 0.5 * um,
			W3: 20 * um, L3: 0.7 * um,
			W5: 40 * um, L5: 0.5 * um,
			W6: 120 * um, L6: 0.3 * um,
			W7: 60 * um, L7: 0.4 * um,
			Itail: 60e-6, K6: 3.0, Cc: 1.5 * pf,
		},
		Cs: 2.5 * pf,
		CL: 2 * pf,
	}
}

func TestEstimatorDeterministic(t *testing.T) {
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	d := refDesign()
	pass := func(p *scint.Perf) bool { return p.DRdB >= 96 }
	a := NewEstimator(5, 16).Robustness(&tech, d, sys, pass)
	b := NewEstimator(5, 16).Robustness(&tech, d, sys, pass)
	if a != b {
		t.Fatalf("same seed must give identical estimates: %g vs %g", a, b)
	}
}

func TestRobustnessBounds(t *testing.T) {
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	d := refDesign()
	e := NewEstimator(1, 24)
	if r := e.Robustness(&tech, d, sys, func(*scint.Perf) bool { return true }); r != 1 {
		t.Fatalf("always-pass criterion must give 1, got %g", r)
	}
	if r := e.Robustness(&tech, d, sys, func(*scint.Perf) bool { return false }); r != 0 {
		t.Fatalf("never-pass criterion must give 0, got %g", r)
	}
}

func TestRobustnessMonotoneInStrictness(t *testing.T) {
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	d := refDesign()
	e := NewEstimator(2, 32)
	loose := e.Robustness(&tech, d, sys, func(p *scint.Perf) bool { return p.DRdB >= 90 })
	tight := e.Robustness(&tech, d, sys, func(p *scint.Perf) bool { return p.DRdB >= 98 })
	if tight > loose {
		t.Fatalf("tighter spec cannot have higher yield: %g > %g", tight, loose)
	}
}

func TestMarginalDesignHasPartialYield(t *testing.T) {
	// A design sitting ON a spec edge should have yield strictly between 0
	// and 1 under process variation — the knob the robustness constraint
	// turns. Find the edge by bisecting the spec.
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	d := refDesign()
	nominal := scint.Evaluate(&tech, d, sys)
	edge := nominal.DRdB // spec exactly at the nominal performance
	e := NewEstimator(3, 64)
	r := e.Robustness(&tech, d, sys, func(p *scint.Perf) bool { return p.DRdB >= edge })
	if r <= 0.05 || r >= 0.95 {
		t.Fatalf("on-edge design should have intermediate yield, got %g", r)
	}
}

func TestSamplesCount(t *testing.T) {
	if NewEstimator(1, 12).Samples() != 12 {
		t.Fatal("Samples")
	}
	// Zero samples: degenerate estimator returns 1 (no evidence).
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	if r := NewEstimator(1, 0).Robustness(&tech, refDesign(), sys, func(*scint.Perf) bool { return false }); r != 1 {
		t.Fatalf("zero-sample estimator should return 1, got %g", r)
	}
}

func TestDesignPerturbationHook(t *testing.T) {
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	d := refDesign()
	e := NewEstimator(4, 32)
	// A perturbation that wrecks the design must collapse yield relative
	// to the nil hook, for a criterion sensitive to it.
	nominal := scint.Evaluate(&tech, d, sys)
	pass := func(p *scint.Perf) bool { return p.Power <= nominal.Power*1.01 }
	clean := e.RobustnessWithDesign(&tech, d, sys, nil, pass)
	wreck := func(di scint.Design, z []float64) scint.Design {
		di.Amp.Itail *= 2 // doubles power on every sample
		return di
	}
	broken := e.RobustnessWithDesign(&tech, d, sys, wreck, pass)
	if clean != 1 || broken != 0 {
		t.Fatalf("perturbation hook ignored: clean=%g broken=%g", clean, broken)
	}
	// z has the full Dims entries for the hook to use.
	sawLen := 0
	e.RobustnessWithDesign(&tech, d, sys, func(di scint.Design, z []float64) scint.Design {
		sawLen = len(z)
		return di
	}, func(*scint.Perf) bool { return true })
	if sawLen != Dims {
		t.Fatalf("hook saw %d z-dims, want %d", sawLen, Dims)
	}
}

func TestDifferentSeedsDifferentTables(t *testing.T) {
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	d := refDesign()
	nominal := scint.Evaluate(&tech, d, sys)
	edge := nominal.DRdB
	pass := func(p *scint.Perf) bool { return p.DRdB >= edge }
	a := NewEstimator(10, 16).Robustness(&tech, d, sys, pass)
	b := NewEstimator(11, 16).Robustness(&tech, d, sys, pass)
	c := NewEstimator(12, 16).Robustness(&tech, d, sys, pass)
	if a == b && b == c {
		t.Fatal("three different seeds giving identical marginal yields is suspicious")
	}
}

func TestSampleMatchesEstimatorTable(t *testing.T) {
	// Sample must hand out exactly the z-vectors RobustnessWithDesign
	// evaluates, in the same order.
	tech := process.Default018()
	sys := scint.DefaultSystem(tech.VDD)
	e := NewEstimator(3, 6)
	var seen [][]float64
	e.RobustnessWithDesign(&tech, refDesign(), sys, func(d scint.Design, z []float64) scint.Design {
		seen = append(seen, append([]float64(nil), z...))
		return d
	}, func(*scint.Perf) bool { return true })
	if len(seen) != e.Samples() {
		t.Fatalf("estimator evaluated %d samples, Samples() = %d", len(seen), e.Samples())
	}
	for k, z := range seen {
		if got := e.Sample(k); got != [Dims]float64(z) {
			t.Fatalf("Sample(%d) = %v, estimator used %v", k, got, z)
		}
	}
}
