package benchdelta

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: sacga
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkCircuitEvaluate            	   87669	     26961 ns/op	      80 B/op	       2 allocs/op
BenchmarkPopulationEvalSequential   	     352	   6717477 ns/op	      11 B/op	       0 allocs/op
BenchmarkPopulationEvalPooled-8     	     356	   6738310 ns/op	      11 B/op	       0 allocs/op
BenchmarkFig4ProbCurves             	       3	   1234567 ns/op	         0.5030 p1_mid
PASS
ok  	sacga	11.883s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d rows, want 4: %+v", len(got), got)
	}
	e := got["BenchmarkPopulationEvalPooled"]
	if e == nil {
		t.Fatal("missing pooled row (cpu-suffix name not normalized)")
	}
	if e.NsPerOp != 6738310 || e.AllocsPerOp != 0 || e.BytesPerOp != 11 {
		t.Fatalf("pooled row wrong: %+v", e)
	}
	if got["BenchmarkCircuitEvaluate"].AllocsPerOp != 2 {
		t.Fatalf("circuit row wrong: %+v", got["BenchmarkCircuitEvaluate"])
	}
	// Rows without -benchmem columns still parse their ns/op.
	if got["BenchmarkFig4ProbCurves"].NsPerOp != 1234567 {
		t.Fatalf("metric-bearing row wrong: %+v", got["BenchmarkFig4ProbCurves"])
	}

	// A row repeated by -count reads as the median of its ns/op samples,
	// whatever their order, and the largest of its B/op and allocs/op.
	got, err = Parse(strings.NewReader(repeatedOutput))
	if err != nil {
		t.Fatal(err)
	}
	if a := got["BenchmarkA"]; a == nil || a.NsPerOp != 1200 || a.BytesPerOp != 48 || a.AllocsPerOp != 3 {
		t.Fatalf("repeated row: %+v, want median 1200 ns/op, max 48 B/op and 3 allocs/op", a)
	}
	if b := got["BenchmarkB"]; b == nil || b.NsPerOp != 600 {
		t.Fatalf("even repeats: %+v, want the mean of the middle pair, 600 ns/op", b)
	}
}

// repeatedOutput is `go test -bench -count` output: five samples of one
// row, one of them an outlier, interleaved with two of another.
const repeatedOutput = `
BenchmarkA-2   	 100	   1300 ns/op	 16 B/op	 1 allocs/op
BenchmarkB     	 100	    500 ns/op
BenchmarkA-2   	 100	   1000 ns/op	 16 B/op	 1 allocs/op
BenchmarkA-2   	 100	   9000 ns/op	 48 B/op	 3 allocs/op
BenchmarkB     	 100	    700 ns/op
BenchmarkA-2   	 100	   1100 ns/op	 16 B/op	 1 allocs/op
BenchmarkA-2   	 100	   1200 ns/op	 16 B/op	 1 allocs/op
`

func baselineFor(t *testing.T, ns, allocs float64) *Baseline {
	t.Helper()
	return &Baseline{Benchmarks: map[string]*Entry{
		"BenchmarkPopulationEvalPooled": {NsPerOp: ns, AllocsPerOp: allocs},
	}}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := baselineFor(t, 1000, 0)
	current := map[string]*Entry{
		"BenchmarkPopulationEvalPooled": {NsPerOp: 1080, AllocsPerOp: 0},
	}
	deltas := Compare(base, current, []string{"BenchmarkPopulationEvalPooled"}, 0.10, 1)
	if Failed(deltas) {
		t.Fatalf("8%% regression under a 10%% gate must pass: %+v", deltas)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := baselineFor(t, 1000, 0)
	current := map[string]*Entry{
		"BenchmarkPopulationEvalPooled": {NsPerOp: 1200, AllocsPerOp: 0},
	}
	deltas := Compare(base, current, []string{"BenchmarkPopulationEvalPooled"}, 0.10, 1)
	if !Failed(deltas) {
		t.Fatal("20% regression under a 10% gate must fail")
	}
}

func TestCompareAllocGrowthFailsStrictly(t *testing.T) {
	base := baselineFor(t, 1000, 0)
	current := map[string]*Entry{
		"BenchmarkPopulationEvalPooled": {NsPerOp: 900, AllocsPerOp: 1},
	}
	deltas := Compare(base, current, []string{"BenchmarkPopulationEvalPooled"}, 0.10, 1)
	if !Failed(deltas) {
		t.Fatal("any allocs/op growth must fail regardless of speed")
	}
}

func TestCompareMissingRowsFail(t *testing.T) {
	base := baselineFor(t, 1000, 0)
	deltas := Compare(base, map[string]*Entry{}, []string{"BenchmarkPopulationEvalPooled"}, 0.10, 1)
	if !Failed(deltas) {
		t.Fatal("a guarded benchmark missing from the run must fail")
	}
	deltas = Compare(base, map[string]*Entry{"BenchmarkX": {NsPerOp: 1}}, []string{"BenchmarkX"}, 0.10, 1)
	if !Failed(deltas) {
		t.Fatal("a guarded benchmark missing from the baseline must fail")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	b := &Baseline{
		Comment:    "test",
		Benchmarks: map[string]*Entry{"BenchmarkA": {NsPerOp: 42, BytesPerOp: 8, AllocsPerOp: 1}},
	}
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["BenchmarkA"].NsPerOp != 42 {
		t.Fatalf("round trip lost data: %+v", got.Benchmarks["BenchmarkA"])
	}
}

func TestLoadBaselineSeedSchema(t *testing.T) {
	// Every checked-in baseline, the one CI gates against included, must
	// stay loadable and carry both gated population-evaluation rows.
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(paths, filepath.Join("..", "..", "BENCH_pr6.json")) {
		t.Fatalf("found baselines %v, want BENCH_pr6.json among them", paths)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		b, err := LoadBaseline(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, row := range []string{"BenchmarkPopulationEvalPooled", "BenchmarkPopulationEvalSequential"} {
			if b.Benchmarks[row] == nil {
				t.Errorf("%s: missing the gated row %s", name, row)
			}
		}
	}
}

func TestCompareCalibratedInsideGate(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]*Entry{
		"BenchmarkPopulationEvalSequential": {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkNondominatedSortReused":   {NsPerOp: 100, AllocsPerOp: 0},
	}}
	// A runner 1.4x slower across the board: raw comparison would blow any
	// reasonable window; the in-gate calibration must cancel it exactly.
	current := map[string]*Entry{
		"BenchmarkPopulationEvalSequential": {NsPerOp: 1400, AllocsPerOp: 0},
		"BenchmarkNondominatedSortReused":   {NsPerOp: 140, AllocsPerOp: 0},
	}
	deltas, scale, err := CompareCalibrated(base, current, nil, DefaultMaxRegress, "BenchmarkNondominatedSortReused")
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1.4 {
		t.Fatalf("scale = %v, want 1.4", scale)
	}
	if Failed(deltas) {
		t.Fatalf("uniformly slower runner must pass the calibrated 7%% gate: %+v", deltas)
	}
	for _, d := range deltas {
		if d.Name == "BenchmarkPopulationEvalSequential" && d.Ratio != 1 {
			t.Fatalf("calibrated ratio = %v, want exactly 1", d.Ratio)
		}
	}

	// A 10% regression hiding inside the machine-speed drift still fails the
	// tightened 7% window once the calibration divides the drift out.
	current["BenchmarkPopulationEvalSequential"].NsPerOp = 1540
	deltas, _, err = CompareCalibrated(base, current, nil, DefaultMaxRegress, "BenchmarkNondominatedSortReused")
	if err != nil {
		t.Fatal(err)
	}
	if !Failed(deltas) {
		t.Fatal("10% real regression must fail the calibrated 7% gate")
	}

	// The calibration row itself is exempt from the ns/op window (its ratio
	// defines the scale) but its allocation count stays strictly gated.
	current["BenchmarkPopulationEvalSequential"].NsPerOp = 1400
	current["BenchmarkNondominatedSortReused"].NsPerOp = 500 // wild drift, ns-exempt
	deltas, scale, err = CompareCalibrated(base, current, nil, DefaultMaxRegress, "BenchmarkNondominatedSortReused")
	if err != nil {
		t.Fatal(err)
	}
	if scale != 5 {
		t.Fatalf("scale = %v, want 5", scale)
	}
	for _, d := range deltas {
		if d.Name == "BenchmarkNondominatedSortReused" && len(d.Failures) > 0 {
			t.Fatalf("calibration row must not fail on ns/op: %+v", d)
		}
	}
	current["BenchmarkNondominatedSortReused"].AllocsPerOp = 3
	deltas, _, err = CompareCalibrated(base, current, nil, DefaultMaxRegress, "BenchmarkNondominatedSortReused")
	if err != nil {
		t.Fatal(err)
	}
	if !Failed(deltas) {
		t.Fatal("allocation growth on the calibration row must still fail")
	}

	if _, _, err := CompareCalibrated(base, current, nil, DefaultMaxRegress, "BenchmarkMissing"); err == nil {
		t.Fatal("missing calibration row must error")
	}
}

func TestCompareCalibrationNormalizesMachineSpeed(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]*Entry{
		"BenchmarkPopulationEvalPooled":   {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkNondominatedSortReused": {NsPerOp: 100},
	}}
	// A runner 1.5x slower across the board: raw comparison would fail the
	// 10% gate, calibrated comparison must pass.
	current := map[string]*Entry{
		"BenchmarkPopulationEvalPooled":   {NsPerOp: 1500, AllocsPerOp: 0},
		"BenchmarkNondominatedSortReused": {NsPerOp: 150},
	}
	scale, err := CalibrationScale(base, current, "BenchmarkNondominatedSortReused")
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1.5 {
		t.Fatalf("scale = %v, want 1.5", scale)
	}
	names := []string{"BenchmarkPopulationEvalPooled"}
	if Failed(Compare(base, current, names, 0.10, scale)) {
		t.Fatal("uniformly slower runner must pass the calibrated gate")
	}
	if !Failed(Compare(base, current, names, 0.10, 1)) {
		t.Fatal("sanity: the raw comparison should have failed")
	}
	// A genuine regression on top of the slow machine still fails.
	current["BenchmarkPopulationEvalPooled"].NsPerOp = 2000
	if !Failed(Compare(base, current, names, 0.10, scale)) {
		t.Fatal("real regression must fail even after calibration")
	}
	if _, err := CalibrationScale(base, current, "BenchmarkMissing"); err == nil {
		t.Fatal("missing calibration row must error")
	}
}

func TestSpeedupRatio(t *testing.T) {
	current := map[string]*Entry{
		"BenchmarkScheduledIslandsSequential": {NsPerOp: 3000},
		"BenchmarkScheduledIslands":           {NsPerOp: 1000},
	}
	ratio, err := Speedup(current, "BenchmarkScheduledIslandsSequential", "BenchmarkScheduledIslands")
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 3 {
		t.Fatalf("ratio = %v, want 3", ratio)
	}
	if _, err := Speedup(current, "BenchmarkMissing", "BenchmarkScheduledIslands"); err == nil {
		t.Fatal("missing slow row must error")
	}
	if _, err := Speedup(current, "BenchmarkScheduledIslandsSequential", "BenchmarkMissing"); err == nil {
		t.Fatal("missing fast row must error")
	}
	current["BenchmarkScheduledIslands"].NsPerOp = 0
	if _, err := Speedup(current, "BenchmarkScheduledIslandsSequential", "BenchmarkScheduledIslands"); err == nil {
		t.Fatal("zero fast ns/op must error")
	}
}

func TestParseSpeedupSpec(t *testing.T) {
	spec, err := ParseSpeedupSpec("BenchmarkA/BenchmarkB:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Slow != "BenchmarkA" || spec.Fast != "BenchmarkB" || spec.Min != 1.5 {
		t.Fatalf("parsed %+v", spec)
	}
	for _, bad := range []string{"", "BenchmarkA:1.5", "BenchmarkA/BenchmarkB", "/B:1.5", "A/:1.5", "A/B:zero", "A/B:-1"} {
		if _, err := ParseSpeedupSpec(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}
