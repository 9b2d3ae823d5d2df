package probspec

import (
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Name: "integrator", Grade: 7, Robust: 8, Seed: 42},
		{Name: "zdt1"},
		{Name: "integrator", Grade: 0, Robust: 0, Seed: -3},
	} {
		got, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("Decode(%q): %v", s.Encode(), err)
		}
		if got != s {
			t.Errorf("round trip: got %+v, want %+v", got, s)
		}
	}
	for _, bad := range []string{"", "a|b", "zdt1|x|0|0", "zdt1|0|x|0", "zdt1|0|0|x"} {
		if _, err := Decode(bad); err == nil {
			t.Errorf("Decode(%q) must fail", bad)
		}
	}
}

func TestBuild(t *testing.T) {
	prob, circuit, err := Spec{Name: "zdt1"}.BuildValidated()
	if err != nil || circuit || prob == nil {
		t.Fatalf("zdt1: prob=%v circuit=%v err=%v", prob, circuit, err)
	}
	prob, circuit, err = Spec{Name: "integrator", Robust: 4, Seed: 1}.BuildValidated()
	if err != nil || !circuit {
		t.Fatalf("integrator: circuit=%v err=%v", circuit, err)
	}
	if _, _, err := (Spec{Name: "no-such"}).Build(); err == nil {
		t.Error("unknown problem must fail")
	}
	if _, _, err := (Spec{Name: "integrator", Grade: 21}).Build(); err == nil {
		t.Error("grade out of range must fail")
	}
	for _, robust := range []int{-1, MaxRobust + 1, 10_000_000} {
		if _, _, err := (Spec{Name: "integrator", Robust: robust}).Build(); err == nil {
			t.Errorf("robust %d must fail", robust)
		}
	}
	if _, _, err := (Spec{Name: "integrator", Robust: MaxRobust}).Build(); err != nil {
		t.Errorf("robust %d must build: %v", MaxRobust, err)
	}

	// Equal specs must evaluate bit-identically — the recovery contract.
	a, _, _ := Spec{Name: "integrator", Robust: 4, Seed: 9}.Build()
	b, _, _ := Spec{Name: "integrator", Robust: 4, Seed: 9}.Build()
	lo, hi := a.Bounds()
	x := make([]float64, a.NumVars())
	for i := range x {
		x[i] = 0.5 * (lo[i] + hi[i])
	}
	ra, rb := a.Evaluate(x), b.Evaluate(x)
	for i := range ra.Objectives {
		if ra.Objectives[i] != rb.Objectives[i] {
			t.Fatalf("objective %d differs across equal specs: %v vs %v", i, ra.Objectives[i], rb.Objectives[i])
		}
	}
	if ra.TotalViolation() != rb.TotalViolation() {
		t.Fatalf("violation differs across equal specs")
	}
}
