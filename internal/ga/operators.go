package ga

import (
	"math"

	"sacga/internal/rng"
)

// Operators bundles the variation operators and their hyperparameters. The
// zero value is not usable; construct with DefaultOperators.
type Operators struct {
	// CrossoverProb is the per-pair probability of applying crossover.
	CrossoverProb float64
	// MutationProb is the per-variable mutation probability; if <= 0 it
	// defaults to 1/numVars at application time.
	MutationProb float64
	// EtaC is the SBX distribution index (larger = children closer to
	// parents). NSGA-II convention: 15–20.
	EtaC float64
	// EtaM is the polynomial-mutation distribution index. Convention: 20.
	EtaM float64
	// BlendAlpha, when > 0, switches crossover to BLX-alpha instead of SBX.
	BlendAlpha float64
	// GaussSigma, when > 0, switches mutation to bound-scaled gaussian
	// perturbation with this relative sigma instead of polynomial mutation.
	GaussSigma float64
}

// DefaultOperators returns the operator settings used throughout the paper
// reproduction: SBX(eta=15) with probability 0.9 and polynomial mutation
// (eta=20) at rate 1/numVars.
func DefaultOperators() Operators {
	return Operators{
		CrossoverProb: 0.9,
		MutationProb:  0, // resolved to 1/numVars
		EtaC:          15,
		EtaM:          20,
	}
}

// CrossoverInto produces two children from two parents, writing them into
// caller-provided buffers — typically generation-recycled offspring from
// Arena.Offspring, which makes steady-state variation allocation-free. c1
// and c2 receive copies of a's and b's genes and bookkeeping (evaluation
// cleared, age zero), whatever they held before, then the configured
// crossover applies in place and bounds are enforced. The parents are not
// modified and must be distinct from the children.
func (op Operators) CrossoverInto(s *rng.Stream, a, b, c1, c2 *Individual, lo, hi []float64) {
	childFrom(c1, a)
	childFrom(c2, b)
	if !s.Bool(op.CrossoverProb) {
		return
	}
	if op.BlendAlpha > 0 {
		blxCrossover(s, c1.X, c2.X, lo, hi, op.BlendAlpha)
	} else {
		sbxCrossover(s, c1.X, c2.X, lo, hi, op.EtaC)
	}
}

// childFrom seeds an offspring buffer from a parent: genes copied into the
// buffer's reused backing array, selection bookkeeping inherited (as
// Individual.Clone would), evaluation and age cleared.
func childFrom(c, parent *Individual) {
	c.X = append(c.X[:0], parent.X...)
	c.Objectives = c.Objectives[:0]
	c.Violation = parent.Violation
	c.Rank = parent.Rank
	c.Crowding = parent.Crowding
	c.Partition = parent.Partition
	c.Age = 0
}

// Mutate applies the configured mutation operator to ind in place.
func (op Operators) Mutate(s *rng.Stream, ind *Individual, lo, hi []float64) {
	pm := op.MutationProb
	if pm <= 0 {
		pm = 1.0 / float64(len(ind.X))
	}
	if op.GaussSigma > 0 {
		gaussMutate(s, ind.X, lo, hi, pm, op.GaussSigma)
		return
	}
	polyMutate(s, ind.X, lo, hi, pm, op.EtaM)
}

// sbxCrossover is simulated binary crossover (Deb & Agrawal). It operates
// variable-wise with probability 1/2 per variable, matching the original
// NSGA-II implementation.
func sbxCrossover(s *rng.Stream, x1, x2, lo, hi []float64, etaC float64) {
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
		betaq := sbxBetaQ(u, alpha, etaC)
		c1 := 0.5 * ((p1 + p2) - betaq*(p2-p1))
		// Child 2 (toward upper bound side).
		beta = 1.0 + 2.0*(yu-p2)/(p2-p1)
		alpha = 2.0 - math.Pow(beta, -(etaC+1.0))
		betaq = sbxBetaQ(u, alpha, etaC)
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

func sbxBetaQ(u, alpha, etaC float64) float64 {
	if u <= 1.0/alpha {
		return math.Pow(u*alpha, 1.0/(etaC+1.0))
	}
	return math.Pow(1.0/(2.0-u*alpha), 1.0/(etaC+1.0))
}

// blxCrossover is BLX-alpha blend crossover.
func blxCrossover(s *rng.Stream, x1, x2, lo, hi []float64, alpha float64) {
	for i := range x1 {
		cmin := math.Min(x1[i], x2[i])
		cmax := math.Max(x1[i], x2[i])
		d := cmax - cmin
		l := cmin - alpha*d
		u := cmax + alpha*d
		x1[i] = clamp(s.Uniform(l, u), lo[i], hi[i])
		x2[i] = clamp(s.Uniform(l, u), lo[i], hi[i])
	}
}

// polyMutate is Deb's polynomial mutation with distribution index etaM.
func polyMutate(s *rng.Stream, x, lo, hi []float64, pm, etaM float64) {
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

// gaussMutate perturbs variables with a gaussian whose sigma is relative to
// the variable's range.
func gaussMutate(s *rng.Stream, x, lo, hi []float64, pm, relSigma float64) {
	for i := range x {
		if !s.Bool(pm) {
			continue
		}
		x[i] = clamp(x[i]+s.Gauss(0, relSigma*(hi[i]-lo[i])), lo[i], hi[i])
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
