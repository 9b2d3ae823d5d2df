// Package pareto implements Pareto-dominance primitives: plain and
// constrained dominance, fast non-dominated sorting, crowding distance and
// NSGA-II's crowded comparison.
//
// All functions treat objective vectors as MINIMIZED.
package pareto

// Point is one candidate in objective space: its objective vector and its
// total constraint violation (0 for feasible points).
type Point struct {
	Obj []float64
	Vio float64
}

// Dominates reports whether a Pareto-dominates b in the plain
// (unconstrained) sense: a is no worse in every objective and strictly
// better in at least one.
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			better = true
		}
	}
	return better
}

// ConstrainedDominates implements Deb's constrained-domination rule:
//  1. a feasible point dominates any infeasible point;
//  2. between two infeasible points the smaller total violation wins;
//  3. between two feasible points plain Pareto dominance decides.
func ConstrainedDominates(a, b Point) bool {
	af, bf := a.Vio <= 0, b.Vio <= 0
	switch {
	case af && !bf:
		return true
	case !af && bf:
		return false
	case !af && !bf:
		return a.Vio < b.Vio
	default:
		return Dominates(a.Obj, b.Obj)
	}
}

// SortFronts performs fast non-dominated sorting (Deb et al., NSGA-II) under
// constrained domination. It returns the fronts as slices of indices into
// pts: fronts[0] is the non-dominated set, fronts[1] the set dominated only
// by fronts[0], and so on. Every index appears in exactly one front.
func SortFronts(pts []Point) [][]int {
	var s Sorter
	return s.Sort(pts)
}

// Ranks returns, for each point, the index of the front it belongs to
// (0 = non-dominated).
func Ranks(pts []Point) []int {
	ranks := make([]int, len(pts))
	for r, front := range SortFronts(pts) {
		for _, i := range front {
			ranks[i] = r
		}
	}
	return ranks
}

// Nondominated returns the indices of the constrained non-dominated subset
// of pts (the first front).
func Nondominated(pts []Point) []int {
	fronts := SortFronts(pts)
	if len(fronts) == 0 {
		return nil
	}
	return fronts[0]
}

// NondominatedPlain returns the indices of the plain (violation-ignoring)
// non-dominated subset of the objective vectors.
func NondominatedPlain(objs [][]float64) []int {
	var out []int
	for i := range objs {
		dominated := false
		for j := range objs {
			if i != j && Dominates(objs[j], objs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// Crowding computes the NSGA-II crowding distance for the members of one
// front. pts is the full population; front lists the member indices. The
// returned slice is aligned with front. Boundary points (extreme in any
// objective) get +Inf.
func Crowding(pts []Point, front []int) []float64 {
	var s Sorter
	return append([]float64(nil), s.Crowding(pts, front)...)
}

// Crowded is NSGA-II's crowded-comparison operator: true if (rankA,crowdA)
// is preferred over (rankB,crowdB) — lower rank first, then larger crowding.
func Crowded(rankA int, crowdA float64, rankB int, crowdB float64) bool {
	if rankA != rankB {
		return rankA < rankB
	}
	return crowdA > crowdB
}
