package ga

import (
	"sort"

	"sacga/internal/pareto"
	"sacga/internal/rng"
)

// TournamentSelect picks one parent by binary tournament using NSGA-II's
// crowded-comparison on the precomputed Rank and Crowding fields.
func TournamentSelect(s *rng.Stream, pop Population) *Individual {
	a := pop[s.Intn(len(pop))]
	b := pop[s.Intn(len(pop))]
	if pareto.Crowded(a.Rank, a.Crowding, b.Rank, b.Crowding) {
		return a
	}
	if pareto.Crowded(b.Rank, b.Crowding, a.Rank, a.Crowding) {
		return b
	}
	if s.Bool(0.5) {
		return a
	}
	return b
}

// RankSelector performs linear rank-based roulette selection: individuals
// are ordered by (Rank, -Crowding) and selection weight decreases linearly
// from best to worst. This is the paper's "rank-based selection of
// individuals from the entire population" used to build the Global Mating
// Pool in the local-competition scheme. The order is computed once per
// Reset, so drawing a whole mating pool from one frozen population state
// costs O(log n) per draw. The zero value is usable after Reset; resetting
// reuses the selector's buffers, so a selector kept across generations
// allocates nothing at steady state.
type RankSelector struct {
	pop   Population
	order []int
	cum   []float64
}

// Reset rebuilds the selector over a new population state in place.
// pressure in (1,2] is the expected number of copies of the best
// individual: 2.0 is maximum pressure, 1.0 degenerates to uniform.
func (rs *RankSelector) Reset(pop Population, pressure float64) {
	n := len(pop)
	rs.pop = pop
	rs.order = identity(rs.order, n)
	sortCrowded(pop, rs.order)
	if cap(rs.cum) < n {
		rs.cum = make([]float64, n)
	}
	rs.cum = rs.cum[:n]
	acc := 0.0
	for k := 0; k < n; k++ {
		w := 1.0
		if n > 1 {
			w = pressure - 2.0*(pressure-1.0)*float64(k)/float64(n-1)
		}
		acc += w
		rs.cum[k] = acc
	}
}

// Pick draws one individual.
func (rs *RankSelector) Pick(s *rng.Stream) *Individual {
	total := rs.cum[len(rs.cum)-1]
	u := s.Float64() * total
	k := sort.SearchFloat64s(rs.cum, u)
	if k >= len(rs.order) {
		k = len(rs.order) - 1
	}
	return rs.pop[rs.order[k]]
}

// TruncateByCrowdedComparison selects the best n individuals from pop using
// (Rank, Crowding) ordering — NSGA-II's environmental selection once ranks
// and crowding are assigned. The input order is not modified.
func TruncateByCrowdedComparison(pop Population, n int) Population {
	var a Arena
	return a.Truncate(pop, n, make(Population, 0, min(n, len(pop))))
}
