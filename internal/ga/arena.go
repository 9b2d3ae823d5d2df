package ga

import (
	"cmp"
	"slices"

	"sacga/internal/pareto"
)

// Arena is a reusable workspace for the per-generation sort/select kernels
// — non-dominated ranking, crowding assignment and crowded-comparison
// truncation — plus the generation-recycled offspring buffers the variation
// operators write into. Engines own one Arena and thread it through every
// generation, so at steady state (population sizes fixed after warm-up)
// these kernels and the crossover/mutation pipeline perform zero heap
// allocations.
//
// An Arena is not safe for concurrent use; give each engine its own.
type Arena struct {
	sorter pareto.Sorter
	pts    []pareto.Point
	order  []int
	free   []*Individual
}

// Offspring returns an empty offspring buffer: a recycled individual when
// one is available (its gene and objective backing arrays are reused by the
// next CrossoverInto/eval), else a fresh zero individual. The caller owns
// the result until it hands it back through Recycle or TruncateRecycle.
func (a *Arena) Offspring() *Individual {
	if k := len(a.free); k > 0 {
		c := a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
		return c
	}
	return &Individual{}
}

// Recycle returns an individual's buffers to the arena for reuse by
// Offspring. The caller must guarantee no live reference to it remains —
// engines recycle exactly the union members their environmental selection
// discarded, which is why observers must not retain populations.
func (a *Arena) Recycle(ind *Individual) { a.free = append(a.free, ind) }

// Immigrate installs migrants in place of pop's crowded-comparison-worst
// members, at most half of pop (the overflow is ignored), and recycles the
// replaced members' buffers. It returns the survivors, in crowded-comparison
// order, followed by the migrants, in pop's backing array, and false when
// it installed none. The caller owns the migrants' ranks: they are left
// for it to refresh.
func (a *Arena) Immigrate(pop, migrants Population) (Population, bool) {
	migrants = migrants[:min(len(migrants), len(pop)/2)]
	if len(migrants) == 0 {
		return pop, false
	}
	// ordered is a copy of pop's member pointers, so rebuilding pop in
	// place is safe.
	ordered := a.Truncate(pop, len(pop), nil)
	keep := len(pop) - len(migrants)
	for _, ind := range ordered[keep:] {
		a.Recycle(ind)
	}
	return append(append(pop[:0], ordered[:keep]...), migrants...), true
}

// sortCrowded stable-sorts idx, indices into pop, best-first by NSGA-II's
// crowded comparison: ascending rank, then descending crowding. The
// comparator is negative exactly where a precedes b, and the stable sort
// tests only for that, so a NaN crowding distance never moves an index.
func sortCrowded(pop Population, idx []int) {
	slices.SortStableFunc(idx, func(a, b int) int {
		ia, ib := pop[a], pop[b]
		switch {
		case ia.Rank != ib.Rank:
			return cmp.Compare(ia.Rank, ib.Rank)
		case ia.Crowding > ib.Crowding:
			return -1
		case ia.Crowding < ib.Crowding:
			return 1
		}
		return 0
	})
}

// identity returns idx resized to n and filled with 0..n-1, reallocated
// only to grow.
func identity(idx []int, n int) []int {
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// points refreshes the arena's point-view buffer over pop.
func (a *Arena) points(pop Population) []pareto.Point {
	if cap(a.pts) < len(pop) {
		a.pts = make([]pareto.Point, len(pop))
	}
	a.pts = a.pts[:len(pop)]
	for i, ind := range pop {
		a.pts[i] = ind.Point()
	}
	return a.pts
}

// AssignRanksAndCrowding is Population.AssignRanksAndCrowding through the
// arena's scratch: a constrained non-dominated sort over the population,
// storing rank and crowding distance on every individual.
func (a *Arena) AssignRanksAndCrowding(pop Population) {
	pts := a.points(pop)
	for r, front := range a.sorter.Sort(pts) {
		crowd := a.sorter.Crowding(pts, front)
		for k, i := range front {
			pop[i].Rank = r
			pop[i].Crowding = crowd[k]
		}
	}
}

// SortByCrowdedComparison returns the indices of pop ordered best-first by
// (Rank, Crowding). The returned slice is workspace, valid until the next
// arena call that sorts.
func (a *Arena) SortByCrowdedComparison(pop Population) []int {
	a.order = identity(a.order, len(pop))
	sortCrowded(pop, a.order)
	return a.order
}

// SortIndicesByCrowdedComparison stable-sorts idx — a slice of indices into
// pop — best-first in place by (Rank, Crowding), without allocating.
func (a *Arena) SortIndicesByCrowdedComparison(pop Population, idx []int) {
	sortCrowded(pop, idx)
}

// Truncate selects the best n individuals of pop by crowded comparison into
// dst (reusing its backing array), the arena counterpart of
// TruncateByCrowdedComparison. pop is not modified.
func (a *Arena) Truncate(pop Population, n int, dst Population) Population {
	order := a.SortByCrowdedComparison(pop)
	if n > len(order) {
		n = len(order)
	}
	dst = dst[:0]
	for _, i := range order[:n] {
		dst = append(dst, pop[i])
	}
	return dst
}

// TruncateRecycle is Truncate that additionally recycles every unselected
// individual of pop into the arena's offspring free list. It is the
// (µ+λ)-survival counterpart of Offspring: engines truncate the union and
// the discarded members become the next generation's offspring buffers.
// The caller must guarantee no reference to the unselected individuals
// survives the call.
func (a *Arena) TruncateRecycle(pop Population, n int, dst Population) Population {
	order := a.SortByCrowdedComparison(pop)
	if n > len(order) {
		n = len(order)
	}
	dst = dst[:0]
	for _, i := range order[:n] {
		dst = append(dst, pop[i])
	}
	for _, i := range order[n:] {
		a.free = append(a.free, pop[i])
	}
	return dst
}
