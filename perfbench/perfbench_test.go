package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"sacga/internal/ga"
	"sacga/internal/search"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0 = no percentile has ten samples beyond it
	}{
		{0, 0}, {9, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != (tc.want != 0) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, got, ok, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1: summarize must not assume order
	}
	got := summarize(xs)
	if got.n != 100 || got.median != 50.5 || got.tailPct != 90 || math.Abs(got.tail-90.1) > 1e-9 {
		t.Fatalf("summarize(1..100) = %+v, want median 50.5 and p90 90.1 of 100", got)
	}
	if few := summarize(xs[:20]); few.tailPct != 0 {
		t.Fatalf("20 samples reported a p%g tail; none has ten samples beyond it", few.tailPct)
	}
}

func TestUnitPercentile(t *testing.T) {
	units := [][]float64{{1, 2, 3}, {10, 20, 30}, {2, 3, 4}, nil}
	if got := unitPercentile(units, 0.5); got != 3 {
		t.Fatalf("median of unit medians = %v, want 3", got)
	}
}

func TestUnionNanos(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  [][2]int64
		want int64
	}{
		{"none", nil, 0},
		{"one", [][2]int64{{10, 20}}, 10},
		{"overlapping", [][2]int64{{10, 20}, {15, 30}}, 20},
		{"unsorted disjoint", [][2]int64{{40, 50}, {10, 20}}, 20},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 20},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 80},
		{"clipped to the parent", [][2]int64{{-10, 20}, {90, 120}}, 30},
	} {
		if got := unionNanos(tc.ivs, 0, 100); got != tc.want {
			t.Errorf("%s: unionNanos = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ix := newIndex([]span{
		{ID: 1, Name: "search.step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "objective.eval", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "objective.eval", Start: 30, End: 60}, // a parallel evaluation
		{ID: 4, Parent: 1, Name: "other", Start: 60, End: 90},
	})
	if got := ix.selfTimes("search.step", "objective.eval"); len(got) != 1 || got[0] != ms(50) {
		t.Fatalf("self time = %v ms, want the 50 ns the evaluations leave uncovered", got)
	}
}

func TestFrontDigest(t *testing.T) {
	pop := ga.Population{
		{X: []float64{0.1, 0.2}, Objectives: []float64{1, 2}},
		{X: []float64{0.3, 0.4}, Objectives: []float64{3, 4}, Violation: 0.5},
	}
	want := popDigest(pop)
	if got := popDigest(pop.Clone()); got != want {
		t.Fatalf("equal fronts digest differently: %s vs %s", got, want)
	}
	ulp := pop.Clone()
	ulp[1].Objectives[0] = math.Nextafter(ulp[1].Objectives[0], 10)
	if popDigest(ulp) == want {
		t.Fatal("digest missed a one-ulp change")
	}
	if popDigest(ga.Population{pop[1], pop[0]}) == want {
		t.Fatal("digest missed a reordering")
	}
	moved := ga.Population{{X: []float64{0.1}, Objectives: []float64{0.2, 1, 2}}}
	if popDigest(moved) == popDigest(pop[:1]) {
		t.Fatal("digest missed a value moving from X to the objectives")
	}
	inf := pop.Clone()
	inf = append(inf, &ga.Individual{X: []float64{0}, Objectives: []float64{math.Inf(1), math.Inf(1)}, Violation: math.Inf(1)})
	if popDigest(inf) != want {
		t.Fatal("a quarantined point changed the digest; the wire front drops it")
	}
}

func TestTenantMixDeterministic(t *testing.T) {
	a := tenantMix(7)
	if !reflect.DeepEqual(a, tenantMix(7)) {
		t.Fatal("one seed drew two different mixes")
	}
	if reflect.DeepEqual(a, tenantMix(8)) {
		t.Fatal("two seeds drew the same mix")
	}
	if len(a) != serveTenants {
		t.Fatalf("%d tenants, want %d", len(a), serveTenants)
	}
	for tenant, row := range a {
		var kinds [len(perTenant)]int
		for _, req := range row {
			kinds[kindOf(req)]++
			if len(req.Params) == 0 {
				continue
			}
			extra, ok := search.NewExtra(req.Engine)
			if !ok {
				t.Fatalf("%s job carries params but takes none", req.Engine)
			}
			dec := json.NewDecoder(bytes.NewReader(req.Params))
			dec.DisallowUnknownFields()
			if err := dec.Decode(extra); err != nil {
				t.Fatalf("%s params %s: %v", req.Engine, req.Params, err)
			}
		}
		if kinds != perTenant {
			t.Fatalf("tenant %d draws kinds %v, want %v", tenant, kinds, perTenant)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric lists the binary
// reports in step with the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var bj struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []declared
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the binary reports %d", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.Name != c.want[i].name || d.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary %s (%s)", c.what, i, d.Name, d.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
