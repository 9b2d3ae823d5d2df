package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two closest ranks; 0 when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowerMedian is the median sample itself (the lower one of an even
// count), for counts that must stay whole.
func lowerMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// tailPermille lists, highest first, the percentiles (in tenths of a
// percent) a timing may report beyond its median.
var tailPermille = []int{999, 990, 950, 900, 750}

// tailPercentile applies the reporting rule for timings: a median plus the
// highest percentile that has at least ten of the n samples beyond it. ok
// is false when no percentile has.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, pm := range tailPermille {
		upTo := (n*pm + 999) / 1000 // ceil(n·pm/1000): samples at or below it
		if n-upTo >= 10 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// timing is one latency sample set summarized by the reporting rule.
type timing struct {
	n       int
	median  float64
	tailPct float64 // 0 when there are too few samples for a tail
	tail    float64
}

func summarize(xs []float64) timing {
	t := timing{n: len(xs), median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		t.tailPct, t.tail = p, quantile(xs, p/100)
	}
	return t
}

func (t timing) String() string {
	if t.tailPct == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail percentile)", t.median, t.n)
	}
	return fmt.Sprintf("p50 %.4g, p%g %.4g (n=%d)", t.median, t.tailPct, t.tail, t.n)
}

// unitPercentile is the median over units of work of each unit's
// q-quantile: a latency percentile that one disturbed unit cannot move.
func unitPercentile(units [][]float64, q float64) float64 {
	var per []float64
	for _, u := range units {
		if len(u) > 0 {
			per = append(per, quantile(u, q))
		}
	}
	return median(per)
}

// unionNanos is the total length of the union of the intervals, each
// clipped to [lo, hi]: the part of a parent span its children cover.
func unionNanos(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		if a, b := max(iv[0], lo), min(iv[1], hi); b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, a, b int64
	for i, iv := range clipped {
		if i > 0 && iv[0] <= b {
			b = max(b, iv[1])
			continue
		}
		total += b - a
		a, b = iv[0], iv[1]
	}
	return total + b - a
}

// another reports whether one more unit of work, taking about as long as
// the median unit so far (units in seconds), still fits in the budget that
// started at start. The first unit always runs.
func another(start time.Time, budget time.Duration, units []float64) bool {
	if len(units) == 0 {
		return true
	}
	next := time.Duration(median(units) * float64(time.Second))
	return time.Since(start)+next <= budget
}

func ms(ns int64) float64   { return float64(ns) / 1e6 }
func secs(ns int64) float64 { return float64(ns) / 1e9 }
