// Package benchdelta parses `go test -bench` output and compares it against
// a recorded JSON baseline (the BENCH_*.json files at the repository root),
// so CI can fail a change that regresses a guarded benchmark. Allocation
// counts are compared strictly — they are machine-independent — while
// ns/op regressions are gated by a relative threshold to absorb runner
// noise.
package benchdelta

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"sacga/internal/stats"
)

// Entry is one benchmark's recorded numbers.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the checked-in BENCH_*.json schema.
type Baseline struct {
	Comment     string            `json:"comment,omitempty"`
	Environment map[string]any    `json:"environment,omitempty"`
	Benchmarks  map[string]*Entry `json:"benchmarks"`
}

// LoadBaseline reads a BENCH_*.json file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchdelta: corrupt baseline %s: %w", path, err)
	}
	if b.Benchmarks == nil {
		b.Benchmarks = map[string]*Entry{}
	}
	return &b, nil
}

// Write persists the baseline as indented JSON.
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchLine matches one `go test -bench` result row, with or without
// -benchmem columns and with or without a -cpu suffix on the name.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+.*?([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// Parse extracts benchmark entries from `go test -bench` output. A row
// repeated by -count is summarized over its repeats: the median ns/op, so
// one noisy stretch on a shared runner cannot decide a gate, and the
// largest B/op and allocs/op, so the allocation gate stays strict.
func Parse(r io.Reader) (map[string]*Entry, error) {
	repeats := map[string][]*Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		e := &Entry{}
		e.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			e.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
			e.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		repeats[m[1]] = append(repeats[m[1]], e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]*Entry, len(repeats))
	for name, es := range repeats {
		sum := &Entry{}
		ns := make([]float64, len(es))
		for i, e := range es {
			ns[i] = e.NsPerOp
			sum.BytesPerOp = max(sum.BytesPerOp, e.BytesPerOp)
			sum.AllocsPerOp = max(sum.AllocsPerOp, e.AllocsPerOp)
		}
		sum.NsPerOp = stats.Median(ns)
		out[name] = sum
	}
	return out, nil
}

// DefaultMaxRegress is the fractional ns/op window CI gates with. The
// in-job calibration (CompareCalibrated) cancels runner-speed differences
// before the window applies, which is what lets it sit at 7% instead of the
// 10% the uncalibrated gate needed to absorb heterogeneous runners.
const DefaultMaxRegress = 0.07

// Delta is one guarded benchmark's comparison outcome.
type Delta struct {
	Name     string
	Baseline *Entry
	Current  *Entry
	// Ratio is current/baseline ns_per_op.
	Ratio float64
	// Failures lists the violated gates (empty = pass).
	Failures []string
}

// CalibrationScale returns the current/baseline ns-per-op ratio of a
// designated calibration benchmark — a stable, pure-CPU row present in both
// runs. Dividing gated ratios by it cancels the raw speed difference
// between the baseline machine and the current runner, so the regression
// window measures the change under test rather than the hardware.
func CalibrationScale(base *Baseline, current map[string]*Entry, name string) (float64, error) {
	b, c := base.Benchmarks[name], current[name]
	if b == nil || c == nil || b.NsPerOp <= 0 {
		return 0, fmt.Errorf("calibration benchmark %s missing from baseline or current run", name)
	}
	return c.NsPerOp / b.NsPerOp, nil
}

// Compare gates the named benchmarks: missing rows fail, ns/op may regress
// by at most maxRegress (fractional, e.g. 0.10) after dividing out scale
// (a machine-speed calibration factor; 1 compares raw numbers), and
// allocs/op must not exceed the baseline at all. names == nil gates every
// baseline benchmark present in current.
func Compare(base *Baseline, current map[string]*Entry, names []string, maxRegress, scale float64) []Delta {
	if names == nil {
		for name := range base.Benchmarks {
			if _, ok := current[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
	}
	if scale <= 0 {
		scale = 1
	}
	deltas := make([]Delta, 0, len(names))
	for _, name := range names {
		d := Delta{Name: name, Baseline: base.Benchmarks[name], Current: current[name]}
		switch {
		case d.Baseline == nil:
			d.Failures = append(d.Failures, "missing from baseline")
		case d.Current == nil:
			d.Failures = append(d.Failures, "missing from current run")
		default:
			d.Ratio = d.Current.NsPerOp / (d.Baseline.NsPerOp * scale)
			if d.Ratio > 1+maxRegress {
				d.Failures = append(d.Failures, fmt.Sprintf(
					"ns/op regressed %.1f%% (%.0f -> %.0f, calibrated scale %.2f, limit %.0f%%)",
					(d.Ratio-1)*100, d.Baseline.NsPerOp, d.Current.NsPerOp, scale, maxRegress*100))
			}
			if d.Current.AllocsPerOp > d.Baseline.AllocsPerOp {
				d.Failures = append(d.Failures, fmt.Sprintf(
					"allocs/op grew %.0f -> %.0f",
					d.Baseline.AllocsPerOp, d.Current.AllocsPerOp))
			}
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// CompareCalibrated is Compare with the machine-speed normalization applied
// inside the gate: the calibration benchmark — a stable, pure-CPU row
// measured in the same job as everything else — supplies the
// current/baseline ns ratio that every gated ratio is divided by before the
// regression window applies. The calibration row itself is never gated on
// ns/op (its ratio is the definition of scale, so gating it would be
// vacuous); its allocation count is still compared strictly. It returns the
// deltas and the scale used, or an error when the calibration row is absent
// from either side.
func CompareCalibrated(base *Baseline, current map[string]*Entry, names []string, maxRegress float64, calibration string) ([]Delta, float64, error) {
	scale, err := CalibrationScale(base, current, calibration)
	if err != nil {
		return nil, 0, err
	}
	if names == nil {
		for name := range base.Benchmarks {
			if _, ok := current[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
	}
	filtered := names[:0:0]
	for _, n := range names {
		if n != calibration {
			filtered = append(filtered, n)
		}
	}
	deltas := Compare(base, current, filtered, maxRegress, scale)
	// Allocation strictness still covers the calibration row.
	if b, c := base.Benchmarks[calibration], current[calibration]; b != nil && c != nil {
		d := Delta{Name: calibration, Baseline: b, Current: c, Ratio: 1}
		if c.AllocsPerOp > b.AllocsPerOp {
			d.Failures = append(d.Failures, fmt.Sprintf(
				"allocs/op grew %.0f -> %.0f", b.AllocsPerOp, c.AllocsPerOp))
		}
		deltas = append(deltas, d)
	}
	return deltas, scale, nil
}

// Speedup returns the ns/op ratio slow/fast between two rows of ONE run —
// the in-job gate for parallel-vs-sequential benchmark pairs. Because both
// rows are measured on the same machine in the same job, the ratio is
// machine-independent and needs no baseline or calibration, which is what
// makes a wall-clock-speedup claim CI-gateable without flaking on runner
// heterogeneity.
func Speedup(current map[string]*Entry, slow, fast string) (float64, error) {
	s, f := current[slow], current[fast]
	if s == nil {
		return 0, fmt.Errorf("speedup benchmark %s missing from current run", slow)
	}
	if f == nil {
		return 0, fmt.Errorf("speedup benchmark %s missing from current run", fast)
	}
	if f.NsPerOp <= 0 {
		return 0, fmt.Errorf("speedup benchmark %s has non-positive ns/op", fast)
	}
	return s.NsPerOp / f.NsPerOp, nil
}

// SpeedupSpec is one parsed -speedup gate: fast must beat slow by at least
// Min×.
type SpeedupSpec struct {
	Slow, Fast string
	Min        float64
}

// ParseSpeedupSpec parses a "SlowBench/FastBench:min" gate expression,
// e.g. "BenchmarkScheduledIslandsSequential/BenchmarkScheduledIslands:1.5".
func ParseSpeedupSpec(s string) (SpeedupSpec, error) {
	pair, minStr, ok := strings.Cut(s, ":")
	if !ok {
		return SpeedupSpec{}, fmt.Errorf("speedup spec %q: want slow/fast:min", s)
	}
	slow, fast, ok := strings.Cut(pair, "/")
	if !ok || slow == "" || fast == "" {
		return SpeedupSpec{}, fmt.Errorf("speedup spec %q: want slow/fast:min", s)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil || min <= 0 {
		return SpeedupSpec{}, fmt.Errorf("speedup spec %q: bad minimum %q", s, minStr)
	}
	return SpeedupSpec{Slow: slow, Fast: fast, Min: min}, nil
}

// Failed reports whether any delta violated a gate.
func Failed(deltas []Delta) bool {
	for _, d := range deltas {
		if len(d.Failures) > 0 {
			return true
		}
	}
	return false
}
