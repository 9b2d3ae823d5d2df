package pareto

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomPoints builds a population with duplicate objective values and a
// mix of feasible/infeasible points to stress every domination branch.
func randomPoints(seed int64, n int) []Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Obj: []float64{
			float64(r.Intn(20)) / 4,
			float64(r.Intn(20)) / 4,
		}}
		if r.Intn(4) == 0 {
			pts[i].Vio = r.Float64()
		}
	}
	return pts
}

// referenceSortFronts is an O(n^2 f) oracle: repeatedly extract the
// constrained non-dominated subset of the remaining points.
func referenceSortFronts(pts []Point) [][]int {
	remaining := make([]int, len(pts))
	for i := range remaining {
		remaining[i] = i
	}
	var fronts [][]int
	for len(remaining) > 0 {
		var front, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && ConstrainedDominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				front = append(front, i)
			}
		}
		fronts = append(fronts, front)
		remaining = rest
	}
	return fronts
}

func TestSorterMatchesReference(t *testing.T) {
	var s Sorter
	for seed := int64(0); seed < 20; seed++ {
		pts := randomPoints(seed, 60)
		got := s.Sort(pts)
		want := referenceSortFronts(pts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d fronts, want %d", seed, len(got), len(want))
		}
		for r := range want {
			// The oracle lists every front in index order, which is not
			// the peel's order within fronts after the first, so compare
			// membership here. That order is part of Sort's contract
			// (crowding ties and the stable crowded truncation read it);
			// TestSortMatchesPeel pins it.
			g := slices.Clone(got[r])
			slices.Sort(g)
			if !slices.Equal(g, want[r]) {
				t.Fatalf("seed %d front %d: %v, want %v", seed, r, g, want[r])
			}
		}
	}
}

func TestSorterReuseAcrossShrinkingSizes(t *testing.T) {
	var s Sorter
	big := randomPoints(3, 100)
	small := randomPoints(4, 10)
	s.Sort(big)
	got := s.Sort(small)
	want := referenceSortFronts(small)
	if len(got) != len(want) {
		t.Fatalf("stale state leaked: %d fronts, want %d", len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("front %d: size %d, want %d", r, len(got[r]), len(want[r]))
		}
	}
}

func TestSorterCrowdingMatchesPackageCrowding(t *testing.T) {
	var s Sorter
	pts := randomPoints(7, 80)
	for _, front := range s.Sort(pts) {
		want := Crowding(pts, front)
		got := s.Crowding(pts, front)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("crowding[%d]: %g, want %g", k, got[k], want[k])
			}
		}
	}
}

// edgePoints draws a population that stresses every tie and edge case
// of constrained domination: objectives on a coarse grid (ties and
// duplicate points) or continuous, mixed with ±Inf and −0, with NaN among
// them when nanObj is set; violations of 0, −0 and negative values
// (feasible), and positive, repeated, NaN and +Inf ones.
func edgePoints(r *rand.Rand, n, nobj int, nanObj bool) []Point {
	grid := r.Intn(7) // 0: continuous values
	infeasible := []float64{0, 0.1, 0.4, 0.8}[r.Intn(4)]
	value := func() float64 {
		switch r.Intn(24) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.Copysign(0, -1)
		case 3:
			if nanObj {
				return math.NaN()
			}
		}
		if grid == 0 {
			return r.NormFloat64()
		}
		return float64(r.Intn(4*grid)) / float64(grid)
	}
	pts := make([]Point, n)
	for i := range pts {
		if i > 0 && r.Intn(8) == 0 {
			pts[i].Obj = slices.Clone(pts[r.Intn(i)].Obj)
		} else {
			pts[i].Obj = make([]float64, nobj)
			for k := range pts[i].Obj {
				pts[i].Obj[k] = value()
			}
		}
		if r.Float64() < infeasible {
			switch r.Intn(5) {
			case 0:
				pts[i].Vio = r.Float64()
			case 1:
				pts[i].Vio = float64(1 + r.Intn(3))
			case 2:
				pts[i].Vio = math.NaN()
			case 3:
				pts[i].Vio = math.Inf(1)
			default:
				pts[i].Vio = 0.5
			}
			continue
		}
		switch r.Intn(6) {
		case 0:
			pts[i].Vio = math.Copysign(0, -1)
		case 1:
			pts[i].Vio = -r.Float64()
		}
	}
	return pts
}

// TestSortMatchesPeel pins Sort to the pairwise peel: the same fronts,
// each in the same order, on 2- and 3-objective inputs of 1 to 250 points
// built by edgePoints, some with NaN objectives.
func TestSortMatchesPeel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var fast, slow Sorter
	const cases = 1500
	swept := 0
	for c := 0; c < cases; c++ {
		nobj := 2
		if c%4 == 3 {
			nobj = 3
		}
		pts := edgePoints(r, 1+r.Intn(250), nobj, c%5 == 4)
		if sweepable(pts) {
			swept++
		}
		got := fast.Sort(pts)
		want := slow.peel(pts)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("case %d (%d points, %d objectives): fronts\n%v\nwant\n%v", c, len(pts), nobj, got, want)
		}
	}
	if swept < cases/2 {
		t.Fatalf("only %d of %d inputs took the sweep", swept, cases)
	}
}

// insertionCrowding is the crowding distance with every objective ordered
// by a stable insertion sort, which Sorter.Crowding must reproduce bit for
// bit.
func insertionCrowding(pts []Point, front []int) []float64 {
	m := len(front)
	dist := make([]float64, m)
	if m <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	order := make([]int, m)
	for k := range pts[front[0]].Obj {
		for i := range order {
			order[i] = i
		}
		for i := 1; i < m; i++ {
			for j := i; j > 0 && pts[front[order[j]]].Obj[k] < pts[front[order[j-1]]].Obj[k]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		lo := pts[front[order[0]]].Obj[k]
		hi := pts[front[order[m-1]]].Obj[k]
		dist[order[0]] = math.Inf(1)
		dist[order[m-1]] = math.Inf(1)
		if hi-lo <= 0 {
			continue
		}
		for i := 1; i < m-1; i++ {
			if math.IsInf(dist[order[i]], 1) {
				continue
			}
			dist[order[i]] += (pts[front[order[i+1]]].Obj[k] -
				pts[front[order[i-1]]].Obj[k]) / (hi - lo)
		}
	}
	return dist
}

// TestCrowdingMatchesInsertionSort checks Sorter.Crowding bit for bit
// against insertionCrowding on every front of edgePoints inputs and on
// shuffled index subsets of them, NaN objectives included.
func TestCrowdingMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var s Sorter
	check := func(c int, pts []Point, front []int) {
		want := insertionCrowding(pts, front)
		got := s.Crowding(pts, front)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("case %d: crowding[%d] of %v = %v, want %v", c, k, front, got[k], want[k])
			}
		}
	}
	for c := 0; c < 600; c++ {
		pts := edgePoints(r, 1+r.Intn(250), 2+c%2, c%3 == 2)
		var sorter Sorter
		for _, front := range sorter.Sort(pts) {
			check(c, pts, front)
		}
		subset := r.Perm(len(pts))[:1+r.Intn(len(pts))]
		check(c, pts, subset)
	}
}

func TestSorterSortZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name  string
		pts   []Point
		sweep bool
	}{
		{"two-objective", randomPoints(11, 200), true},
		{"three-objective", edgePoints(rand.New(rand.NewSource(11)), 200, 3, false), false},
		{"nan-objective", edgePoints(rand.New(rand.NewSource(12)), 200, 2, true), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if sweepable(c.pts) != c.sweep {
				t.Fatalf("sweepable = %v, want %v", !c.sweep, c.sweep)
			}
			var s Sorter
			s.Sort(c.pts) // warm up the workspaces
			avg := testing.AllocsPerRun(20, func() { s.Sort(c.pts) })
			if avg != 0 {
				t.Fatalf("Sorter.Sort allocates %.1f objects/run at steady state, want 0", avg)
			}
		})
	}
}

func TestSorterCrowdingZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		pts  []Point
	}{
		{"ordered-by-pairs", randomPoints(13, 200)},
		{"ordered-by-insertion", edgePoints(rand.New(rand.NewSource(13)), 200, 2, true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s Sorter
			front := make([]int, len(c.pts))
			for i := range front {
				front[i] = i
			}
			s.Crowding(c.pts, front) // warm up
			avg := testing.AllocsPerRun(20, func() { s.Crowding(c.pts, front) })
			if avg != 0 {
				t.Fatalf("Sorter.Crowding allocates %.1f objects/run at steady state, want 0", avg)
			}
		})
	}
}

// BenchmarkSortPeel runs the general pairwise peel on the 200-point
// two-objective input of the root BenchmarkNondominatedSortReused, which
// Sort orders by the sweep; CI gates the ratio of the two rows.
func BenchmarkSortPeel(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{Obj: []float64{r.Float64(), r.Float64()}}
	}
	var s Sorter
	s.peel(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.peel(pts)
	}
}
