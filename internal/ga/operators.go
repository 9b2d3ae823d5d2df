package ga

import (
	"math"

	"sacga/internal/rng"
)

// The variation operators run at the paper-reproduction settings, the one
// operator set every optimizer is compared under: SBX with distribution
// index etaC applied to a pair with probability crossoverProb, and
// polynomial mutation with index etaM at a per-gene rate of 1/numVars.
const (
	crossoverProb = 0.9
	etaC          = 15
	etaM          = 20
)

// CrossoverInto produces two children from two parents, writing them into
// caller-provided buffers — typically generation-recycled offspring from
// Arena.Offspring, which makes steady-state variation allocation-free. c1
// and c2 receive copies of a's and b's genes and bookkeeping (evaluation
// cleared), whatever they held before, then SBX applies in place
// (with probability crossoverProb) and bounds are enforced. The parents
// are not modified and must be distinct from the children.
func CrossoverInto(s *rng.Stream, a, b, c1, c2 *Individual, lo, hi []float64) {
	childFrom(c1, a)
	childFrom(c2, b)
	if s.Bool(crossoverProb) {
		sbxCrossover(s, c1.X, c2.X, lo, hi)
	}
}

// childFrom seeds an offspring buffer from a parent: genes copied into the
// buffer's reused backing array, selection bookkeeping inherited (as
// Individual.Clone would), evaluation cleared.
func childFrom(c, parent *Individual) {
	c.X = append(c.X[:0], parent.X...)
	c.Objectives = c.Objectives[:0]
	c.Violation = parent.Violation
	c.Rank = parent.Rank
	c.Crowding = parent.Crowding
	c.Partition = parent.Partition
}

// Mutate applies polynomial mutation to ind in place, each gene with
// probability 1/numVars.
func Mutate(s *rng.Stream, ind *Individual, lo, hi []float64) {
	polyMutate(s, ind.X, lo, hi, 1.0/float64(len(ind.X)))
}

// sbxCrossover is simulated binary crossover (Deb & Agrawal) with
// distribution index etaC. It operates variable-wise with probability 1/2
// per variable, matching the original NSGA-II implementation.
func sbxCrossover(s *rng.Stream, x1, x2, lo, hi []float64) {
	for i := range x1 {
		if !s.Bool(0.5) {
			continue
		}
		p1, p2 := x1[i], x2[i]
		if math.Abs(p1-p2) < 1e-14 {
			continue
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		yl, yu := lo[i], hi[i]
		u := s.Float64()
		// Child 1 (toward lower bound side).
		beta := 1.0 + 2.0*(p1-yl)/(p2-p1)
		alpha := 2.0 - math.Pow(beta, -(etaC+1.0))
		betaq := sbxBetaQ(u, alpha)
		c1 := 0.5 * ((p1 + p2) - betaq*(p2-p1))
		// Child 2 (toward upper bound side).
		beta = 1.0 + 2.0*(yu-p2)/(p2-p1)
		alpha = 2.0 - math.Pow(beta, -(etaC+1.0))
		betaq = sbxBetaQ(u, alpha)
		c2 := 0.5 * ((p1 + p2) + betaq*(p2-p1))
		c1 = clamp(c1, yl, yu)
		c2 = clamp(c2, yl, yu)
		if s.Bool(0.5) {
			x1[i], x2[i] = c2, c1
		} else {
			x1[i], x2[i] = c1, c2
		}
	}
}

func sbxBetaQ(u, alpha float64) float64 {
	if u <= 1.0/alpha {
		return math.Pow(u*alpha, 1.0/(etaC+1.0))
	}
	return math.Pow(1.0/(2.0-u*alpha), 1.0/(etaC+1.0))
}

// polyMutate is Deb's polynomial mutation with distribution index etaM,
// applied to each gene with probability pm.
func polyMutate(s *rng.Stream, x, lo, hi []float64, pm float64) {
	for i := range x {
		if !s.Bool(pm) {
			continue
		}
		y := x[i]
		yl, yu := lo[i], hi[i]
		if yu-yl <= 0 {
			continue
		}
		delta1 := (y - yl) / (yu - yl)
		delta2 := (yu - y) / (yu - yl)
		u := s.Float64()
		mutPow := 1.0 / (etaM + 1.0)
		var deltaq float64
		if u <= 0.5 {
			xy := 1.0 - delta1
			val := 2.0*u + (1.0-2.0*u)*math.Pow(xy, etaM+1.0)
			deltaq = math.Pow(val, mutPow) - 1.0
		} else {
			xy := 1.0 - delta2
			val := 2.0*(1.0-u) + 2.0*(u-0.5)*math.Pow(xy, etaM+1.0)
			deltaq = 1.0 - math.Pow(val, mutPow)
		}
		x[i] = clamp(y+deltaq*(yu-yl), yl, yu)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
