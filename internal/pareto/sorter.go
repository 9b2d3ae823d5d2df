package pareto

import (
	"math"
	"slices"
)

// Sorter is a reusable workspace for fast non-dominated sorting and
// crowding-distance computation. The zero value is ready to use; after a
// warm-up call at a given population size, Sort and Crowding run without
// allocating, which is what keeps the per-generation selection kernels of
// the optimizers allocation-free.
//
// A Sorter is not safe for concurrent use; give each engine its own.
type Sorter struct {
	dominatedBy []int   // peel: how many points dominate i
	dominates   [][]int // peel: indices i dominates (inner slices reused)
	frontBuf    []int   // flat storage all fronts slice into
	fronts      [][]int // front headers over frontBuf

	lex    []planar // sweep: feasible points, then regrouped by front
	byLex  []planar // sweep: feasible points in (f0, f1, index) order
	frontK []int    // sweep: front of each byLex entry
	latest []planar // sweep: each front's latest member
	start  []int    // sweep: where each front begins in lex
	pos    []int    // sweep: each point's position in its emitted front
	keys   []int    // sweep: one front's emission keys
	window []int    // sweep: sliding-window maximum deque
	bad    []keyed  // sweep: infeasible points' (violation, index)

	order []int     // crowding scratch: per-objective sort order
	crowd []float64 // crowding scratch: distances for one front
	pairs []keyed   // crowding scratch: (value, front position) pairs
}

// Sort performs fast non-dominated sorting (Deb et al., NSGA-II) under
// constrained domination, exactly as the package-level SortFronts. The
// returned fronts — and the int slices they contain — are workspace views
// valid only until the next Sort call on this Sorter.
//
// Within each front the members come in the order the pairwise peel
// emits them (front 0 in index order; front k by the position in front
// k−1 of each member's last dominator there, then by index), and the
// crowding ties and stable crowded truncation of the engines read that
// order. Two-objective input whose feasible points carry no NaN objective
// is sorted by an O(n log n) sweep that reproduces it; any other input
// takes the O(n²) peel.
func (s *Sorter) Sort(pts []Point) [][]int {
	if len(pts) == 0 {
		return nil
	}
	if sweepable(pts) {
		return s.sweep(pts)
	}
	return s.peel(pts)
}

// resetFronts empties the front storage for n points. Every index lands
// in exactly one front, so frontBuf never outgrows its cap and the header
// slices stay valid.
func (s *Sorter) resetFronts(n int) {
	if cap(s.frontBuf) < n {
		s.frontBuf = make([]int, 0, n)
	}
	s.frontBuf = s.frontBuf[:0]
	s.fronts = s.fronts[:0]
}

// closeFront makes frontBuf[lo:] the next front.
func (s *Sorter) closeFront(lo int) {
	hi := len(s.frontBuf)
	s.fronts = append(s.fronts, s.frontBuf[lo:hi:hi])
}

// peel is the general sort: count every point's dominators pairwise, then
// peel fronts off in Deb's order. It handles any number of objectives and
// any NaN.
func (s *Sorter) peel(pts []Point) [][]int {
	n := len(pts)
	s.dominatedBy = reserve(s.dominatedBy, n)[:n]
	clear(s.dominatedBy)
	if cap(s.dominates) < n {
		grown := make([][]int, n)
		copy(grown, s.dominates[:cap(s.dominates)])
		s.dominates = grown
	}
	s.dominates = s.dominates[:n]
	for i := range s.dominates {
		s.dominates[i] = s.dominates[i][:0]
	}
	s.resetFronts(n)

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case ConstrainedDominates(pts[i], pts[j]):
				s.dominates[i] = append(s.dominates[i], j)
				s.dominatedBy[j]++
			case ConstrainedDominates(pts[j], pts[i]):
				s.dominates[j] = append(s.dominates[j], i)
				s.dominatedBy[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if s.dominatedBy[i] == 0 {
			s.frontBuf = append(s.frontBuf, i)
		}
	}
	lo := 0
	for lo < len(s.frontBuf) {
		s.closeFront(lo)
		front := s.fronts[len(s.fronts)-1]
		lo = len(s.frontBuf)
		for _, i := range front {
			for _, j := range s.dominates[i] {
				s.dominatedBy[j]--
				if s.dominatedBy[j] == 0 {
					s.frontBuf = append(s.frontBuf, j)
				}
			}
		}
	}
	return s.fronts
}

// planar is a feasible point of a two-objective population.
type planar struct {
	x, y float64
	i    int
}

// dominates is Dominates on two objectives.
func (a planar) dominates(b planar) bool {
	return a.x <= b.x && a.y <= b.y && (a.x < b.x || a.y < b.y)
}

func byXYIndex(a, b planar) int {
	switch {
	case a.x < b.x:
		return -1
	case a.x > b.x:
		return 1
	case a.y < b.y:
		return -1
	case a.y > b.y:
		return 1
	}
	return a.i - b.i
}

// keyed is a value and an index, ordered by value, then index.
type keyed struct {
	v float64
	i int
}

func byValueIndex(a, b keyed) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return a.i - b.i
}

// sweepable reports whether the sweep can order pts: every feasible point
// has two objectives, neither NaN. Infeasible points never compare their
// objectives.
func sweepable(pts []Point) bool {
	for _, p := range pts {
		if p.Vio <= 0 && (len(p.Obj) != 2 || math.IsNaN(p.Obj[0]) || math.IsNaN(p.Obj[1])) {
			return false
		}
	}
	return true
}

// sweep sorts a two-objective population in O(n log n) into the fronts
// and within-front order of peel.
//
// Feasible points are visited in (f0, f1, index) order. Each joins the
// first front whose latest member does not dominate it; the latest
// members' f1 never decreases from one front to the next, so a binary
// search finds that front. Within a front, f0 rises and f1 falls along
// this lexicographic order.
//
// Emission reproduces the peel's order. A member of front k > 0 is
// emitted by the peel when its last dominator in front k−1 is, so front k
// is ordered by that dominator's emitted position, then by index. The
// member's dominators in front k−1 are the run of front k−1's
// lexicographic list with f0 ≤ its f0 and f1 ≤ its f1; both ends of the
// run only move forward along front k's own list, so a sliding-window
// maximum over emitted positions finds the last dominator.
//
// Infeasible points follow in fronts of equal violation, in ascending
// order, each in index order: every member of one such front dominates
// every member of the next. A NaN violation is dominated by every
// feasible point and by nothing else, so it joins the first infeasible
// front.
func (s *Sorter) sweep(pts []Point) [][]int {
	n := len(pts)
	s.resetFronts(n)
	// Every workspace is sized for n points, so one warm-up call at a
	// population size leaves nothing to grow whatever the fronts are.
	s.byLex, s.lex, s.latest = reserve(s.byLex, n), reserve(s.lex, n), reserve(s.latest, n)
	s.frontK, s.keys, s.window = reserve(s.frontK, n), reserve(s.keys, n), reserve(s.window, n)
	s.start, s.pos, s.bad = reserve(s.start, n+1), reserve(s.pos, n)[:n], reserve(s.bad, n)
	for i, p := range pts {
		if p.Vio <= 0 {
			s.byLex = append(s.byLex, planar{p.Obj[0], p.Obj[1], i})
		} else {
			s.bad = append(s.bad, keyed{p.Vio, i})
		}
	}
	slices.SortFunc(s.byLex, byXYIndex)

	for _, p := range s.byLex {
		lo, hi := 0, len(s.latest)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.latest[mid].dominates(p) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(s.latest) {
			s.latest = append(s.latest, p)
		} else {
			s.latest[lo] = p
		}
		s.frontK = append(s.frontK, lo)
	}

	// Regroup byLex by front into lex, keeping lexicographic order within
	// each front: a counting sort on the front number.
	nf := len(s.latest)
	s.start = s.start[:nf+1]
	clear(s.start)
	for _, f := range s.frontK {
		s.start[f+1]++
	}
	for f := 1; f <= nf; f++ {
		s.start[f] += s.start[f-1]
	}
	s.lex = s.lex[:len(s.byLex)]
	for k, p := range s.byLex {
		f := s.frontK[k]
		s.lex[s.start[f]] = p
		s.start[f]++
	}
	for f := nf; f > 0; f-- {
		s.start[f] = s.start[f-1]
	}
	s.start[0] = 0

	for f := 0; f < nf; f++ {
		members := s.lex[s.start[f]:s.start[f+1]]
		s.keys = s.keys[:len(members)]
		if f == 0 {
			for j, p := range members {
				s.keys[j] = p.i
			}
		} else {
			s.lastDominators(s.lex[s.start[f-1]:s.start[f]], members, n)
		}
		slices.Sort(s.keys)
		for r, key := range s.keys {
			i := key % n
			s.pos[i] = r
			s.keys[r] = i
		}
		lo := len(s.frontBuf)
		s.frontBuf = append(s.frontBuf, s.keys...)
		s.closeFront(lo)
	}

	if len(s.bad) > 0 {
		low := math.Inf(1) // the least violation; NaN compares false
		for _, b := range s.bad {
			if b.v < low {
				low = b.v
			}
		}
		for k := range s.bad {
			if math.IsNaN(s.bad[k].v) {
				s.bad[k].v = low
			}
		}
		slices.SortFunc(s.bad, byValueIndex)
		lo := len(s.frontBuf)
		for k, b := range s.bad {
			if k > 0 && b.v != s.bad[k-1].v {
				s.closeFront(lo)
				lo = len(s.frontBuf)
			}
			s.frontBuf = append(s.frontBuf, b.i)
		}
		s.closeFront(lo)
	}
	return s.fronts
}

// lastDominators fills s.keys with one emission key per member of a front,
// pos·n + index, where pos is the emitted position of the member's last
// dominator in prev, the front before it. Both fronts are in lexicographic
// order and s.pos holds prev's emitted positions.
func (s *Sorter) lastDominators(prev, members []planar, n int) {
	dq := s.window[:0]
	head, a, b := 0, 0, 0
	for j, p := range members {
		// Admit prev's members with f0 ≤ p's, keeping the deque's
		// positions strictly decreasing from head to tail.
		for b < len(prev) && prev[b].x <= p.x {
			at := s.pos[prev[b].i]
			for len(dq) > head && s.pos[prev[dq[len(dq)-1]].i] <= at {
				dq = dq[:len(dq)-1]
			}
			dq = append(dq, b)
			b++
		}
		// Retire those with f1 > p's.
		for a < b && prev[a].y > p.y {
			a++
		}
		for dq[head] < a {
			head++
		}
		s.keys[j] = s.pos[prev[dq[head]].i]*n + p.i
	}
	s.window = dq
}

// reserve returns buf emptied, with room for n elements.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// Crowding computes the NSGA-II crowding distance for the members of one
// front, exactly as the package-level Crowding. The returned slice is
// workspace, valid only until the next Crowding call on this Sorter.
//
// Each objective orders the front as a stable sort on the value would,
// ties in front order: a sort of (value, position) pairs, or, when the
// objective holds a NaN, which no sort key orders, a stable insertion
// sort.
func (s *Sorter) Crowding(pts []Point, front []int) []float64 {
	m := len(front)
	if cap(s.crowd) < m {
		s.crowd = make([]float64, m)
	}
	dist := s.crowd[:m]
	if m == 0 {
		return dist
	}
	if m <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	clear(dist)
	s.order = reserve(s.order, m)[:m]
	order := s.order
	nobj := len(pts[front[0]].Obj)
	for k := 0; k < nobj; k++ {
		s.orderBy(pts, front, k)
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

// orderBy fills s.order with the front positions in stable ascending
// order of objective k.
func (s *Sorter) orderBy(pts []Point, front []int, k int) {
	order := s.order
	s.pairs = s.pairs[:0]
	for p, i := range front {
		v := pts[i].Obj[k]
		if math.IsNaN(v) {
			insertionOrder(pts, front, k, order)
			return
		}
		s.pairs = append(s.pairs, keyed{v, p})
	}
	slices.SortFunc(s.pairs, byValueIndex)
	for r, c := range s.pairs {
		order[r] = c.i
	}
}

// insertionOrder is the stable insertion sort of the front positions on
// objective k, the order every input, NaN included, is defined by.
func insertionOrder(pts []Point, front []int, k int, order []int) {
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && pts[front[order[j]]].Obj[k] < pts[front[order[j-1]]].Obj[k]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
