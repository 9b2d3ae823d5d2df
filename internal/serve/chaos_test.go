package serve

import (
	"strings"
	"testing"

	"sacga/internal/fault"
	"sacga/internal/objective"
	"sacga/internal/probspec"
)

// TestFaultyJobDegradesWithoutWedging is the multi-tenant fault-isolation
// property: a job whose problem injects evaluation panics ends degraded
// with its best-so-far front served, while a healthy co-tenant completes
// bit-identically to a solo run and the job table keeps accepting work.
func TestFaultyJobDegradesWithoutWedging(t *testing.T) {
	honest := testBuild(0)
	build := func(spec probspec.Spec) (objective.Problem, bool, error) {
		prob, circuit, err := honest(spec)
		if err != nil {
			return nil, false, err
		}
		if spec.Name == "zdt1" { // only the chaos tenant is sabotaged
			inj := fault.NewInjector(fault.Config{Seed: 1, PPanic: 0.2})
			return fault.Wrap(prob, inj), circuit, nil
		}
		return prob, circuit, nil
	}
	s := newTestServer(t, Config{Slots: 2, Build: build})

	faulty, _, err := s.Submit(zdtJob("nsga2", 5, 50))
	if err != nil {
		t.Fatalf("submit faulty: %v", err)
	}
	healthyReq := zdtJob("nsga2", 5, 15)
	healthyReq.Problem = probspec.Spec{Name: "zdt2"}
	healthy, _, err := s.Submit(healthyReq)
	if err != nil {
		t.Fatalf("submit healthy: %v", err)
	}

	res := waitTerminal(t, s, faulty.ID)
	if res.State != StateDegraded {
		t.Fatalf("faulty job state %s, want degraded (err %q)", res.State, res.Error)
	}
	if res.Error == "" || !strings.Contains(res.Error, "evaluations failed") {
		t.Fatalf("degraded job should carry the quarantine cause, got %q", res.Error)
	}
	if len(res.Front) == 0 {
		t.Fatal("degraded job must serve its best-so-far front")
	}
	for _, p := range res.Front {
		if p.Violation != 0 {
			t.Fatalf("served front contains a non-finite/quarantined point: %+v", p)
		}
	}

	hres := waitTerminal(t, s, healthy.ID)
	if hres.State != StateDone {
		t.Fatalf("healthy co-tenant state %s (err %q)", hres.State, hres.Error)
	}
	frontsEqual(t, "healthy co-tenant", hres.Front, soloRun(t, honest, healthyReq))

	// The table is not wedged: new work still admits and completes.
	afterReq := zdtJob("nsga2", 6, 8)
	afterReq.Problem = probspec.Spec{Name: "zdt3"}
	after, _, err := s.Submit(afterReq)
	if err != nil {
		t.Fatalf("submit after fault: %v", err)
	}
	if ares := waitTerminal(t, s, after.ID); ares.State != StateDone {
		t.Fatalf("post-fault job state %s", ares.State)
	}
}

// TestRelayJobQuarantinedInitDegrades: a relay tenant whose first leg's
// initial population is quarantined ends degraded with its front served,
// and the server keeps admitting and finishing work.
func TestRelayJobQuarantinedInitDegrades(t *testing.T) {
	honest := testBuild(0)
	build := func(spec probspec.Spec) (objective.Problem, bool, error) {
		prob, circuit, err := honest(spec)
		if err != nil {
			return nil, false, err
		}
		if spec.Name == "zdt1" { // only the relay tenant is sabotaged
			inj := fault.NewInjector(fault.Config{Seed: 3, PPanic: 0.5})
			return fault.Wrap(prob, inj), circuit, nil
		}
		return prob, circuit, nil
	}
	s := newTestServer(t, Config{Slots: 2, Build: build})

	req := zdtJob("relay", 5, 6)
	req.Params = []byte(`{"Legs": [{"Algo": "nsga2", "Generations": 3}, {"Algo": "nsga2"}]}`)
	relay, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit relay: %v", err)
	}
	res := waitTerminal(t, s, relay.ID)
	if res.State != StateDegraded {
		t.Fatalf("relay job state %s, want degraded (err %q)", res.State, res.Error)
	}
	if len(res.Front) == 0 {
		t.Fatal("degraded relay job must serve its front")
	}

	afterReq := zdtJob("nsga2", 6, 8)
	afterReq.Problem = probspec.Spec{Name: "zdt3"}
	after, _, err := s.Submit(afterReq)
	if err != nil {
		t.Fatalf("submit after the relay: %v", err)
	}
	if ares := waitTerminal(t, s, after.ID); ares.State != StateDone {
		t.Fatalf("job after the relay ended %s (err %q)", ares.State, ares.Error)
	}
}
