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
		alpha := 2.0 - powNeg16(beta)
		betaq := sbxBetaQ(u, alpha)
		c1 := 0.5 * ((p1 + p2) - betaq*(p2-p1))
		// Child 2 (toward upper bound side).
		beta = 1.0 + 2.0*(yu-p2)/(p2-p1)
		alpha = 2.0 - powNeg16(beta)
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
		return powRoot(u*alpha, 1.0/(etaC+1.0))
	}
	return powRoot(1.0/(2.0-u*alpha), 1.0/(etaC+1.0))
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
			val := 2.0*u + (1.0-2.0*u)*pow21(xy)
			deltaq = powRoot(val, mutPow) - 1.0
		} else {
			xy := 1.0 - delta2
			val := 2.0*(1.0-u) + 2.0*(u-0.5)*pow21(xy)
			deltaq = 1.0 - powRoot(val, mutPow)
		}
		x[i] = clamp(y+deltaq*(yu-yl), yl, yu)
	}
}

// The variation kernels raise to four constant powers: −(etaC+1) = −16,
// 1/(etaC+1) = 1/16, etaM+1 = 21 and 1/(etaM+1) = 1/21. Each helper below
// runs the operations math.Pow itself runs for its exponent, so it returns
// math.Pow's result bit for bit, without math.Pow's special-case dispatch.
// For an integer exponent, math.Pow squares and multiplies Frexp's
// mantissa, keeps the binary exponent apart and applies it with Ldexp at
// the end; that rounds exactly as the same products of x itself while
// every intermediate and the result stay normal. For a fraction below 1/2
// it returns Exp(y·Log(x)). Outside the input ranges where that holds, the
// helpers call math.Pow.

// powNeg16 returns math.Pow(x, -16).
func powNeg16(x float64) float64 {
	// x¹⁶ and its reciprocal lie in [2⁻⁹⁹², 2⁹⁹²].
	if a := math.Abs(x); a >= 0x1p-62 && a <= 0x1p62 {
		x2 := x * x
		x4 := x2 * x2
		x8 := x4 * x4
		return 1 / (x8 * x8)
	}
	return math.Pow(x, -16)
}

// pow21 returns math.Pow(x, 21), multiplying the squarings x, x⁴ and x¹⁶
// in math.Pow's order.
func pow21(x float64) float64 {
	// x²¹ and every intermediate lie in [2⁻¹⁰⁰⁸, 2¹⁰⁰⁸].
	if a := math.Abs(x); a >= 0x1p-48 && a <= 0x1p48 {
		x2 := x * x
		x4 := x2 * x2
		x5 := x * x4
		x8 := x4 * x4
		x16 := x8 * x8
		return x5 * x16
	}
	return math.Pow(x, 21)
}

// powRoot returns math.Pow(x, y) for y in (0, 1/2), here 1/16 or 1/21.
// For positive finite x, math.Pow returns Ldexp(Exp(y·Log(x)), 0), and
// the Exp is normal, so the Ldexp returns it unchanged.
func powRoot(x, y float64) float64 {
	if x > 0 && x <= math.MaxFloat64 {
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
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
