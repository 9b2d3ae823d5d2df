// Package sizing defines the paper's optimization problem: size the CDS
// switched-capacitor integrator (15 design parameters after topology-based
// reduction) to trade off power dissipation against the load capacitance
// the stage can drive, under the paper's constraint set — dynamic range,
// output range, settling time, settling error, robustness (yield), device
// operating regions with matching across all manufacturing corners, plus
// stability (phase margin) and area.
//
// Objective convention (package objective minimizes everything):
//
//	f0 = power (W)         — minimized
//	f1 = −CL  (F)          — load capacitance, maximized
//
// ReportedFront converts minimized objective vectors back to the paper's
// (CL, Power) axes.
package sizing

import (
	"fmt"
	"math"

	"sacga/internal/objective"
	"sacga/internal/opamp"
	"sacga/internal/process"
	"sacga/internal/scint"
	"sacga/internal/yield"
)

// Spec is one circuit specification set (the paper's §2 lists the explicit
// example; SpecLadder grades twenty of them by difficulty).
type Spec struct {
	Name string
	// DRMinDB is the minimum dynamic range (dB).
	DRMinDB float64
	// ORMin is the minimum differential output range (V).
	ORMin float64
	// STMax is the maximum settling time (s).
	STMax float64
	// SEMax is the maximum settling error.
	SEMax float64
	// RobustMin is the minimum Monte-Carlo robustness (yield fraction).
	RobustMin float64
	// PMMinDeg is the minimum phase margin (deg) — the stability face of
	// the paper's settling formulation.
	PMMinDeg float64
	// AreaMax is the maximum layout area (m²).
	AreaMax float64
}

// PaperSpec returns the specification the paper reports explicit results
// for: DR ≥ 96 dB, OR ≥ 1.4 V, ST ≤ 0.24 µs, SE ≤ 7·10⁻⁴, Robustness ≥
// 0.85 (plus the implicit operating-region, stability and area limits).
func PaperSpec() Spec {
	return Spec{
		Name:      "paper",
		DRMinDB:   96,
		ORMin:     1.4,
		STMax:     0.24e-6,
		SEMax:     7e-4,
		RobustMin: 0.85,
		PMMinDeg:  45,
		AreaMax:   0.05e-6, // 0.05 mm²
	}
}

// SpecLadder returns n specification sets graded from loose to tight around
// the paper spec, reproducing "20 different specifications of the circuit
// graded by their level of difficulty". Difficulty index 0 is the loosest;
// the paper spec sits roughly at index 2n/3.
func SpecLadder(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		// d sweeps 0→1; the paper spec corresponds to d ≈ 0.66.
		d := float64(i) / float64(n-1)
		specs[i] = Spec{
			Name:      fmt.Sprintf("grade-%02d", i+1),
			DRMinDB:   90 + 9*d,                 // 90 … 99 dB
			ORMin:     1.1 + 0.45*d,             // 1.1 … 1.55 V
			STMax:     (0.40 - 0.24*d) * 1e-6,   // 0.40 … 0.16 µs
			SEMax:     math.Pow(10, -2.6-0.9*d), // 2.5e-3 … 3.2e-4
			RobustMin: 0.70 + 0.25*d,            // 0.70 … 0.95
			PMMinDeg:  45,
			AreaMax:   0.05e-6,
		}
	}
	return specs
}

// Constraint indices in the violation vector.
const (
	ConsDR = iota
	ConsOR
	ConsST
	ConsSE
	ConsRobust
	ConsSatRegion
	ConsPM
	ConsArea
	NumCons
)

// ConsName returns a short label for a constraint index.
func ConsName(i int) string {
	return [...]string{"DR", "OR", "ST", "SE", "robust", "satregion", "PM", "area"}[i]
}

// Gene indices of the 15-parameter design vector. All genes are normalized
// to [0,1]; Decode maps them onto physical ranges (log scale for widths,
// currents, ratio and capacitors; linear for lengths and the load).
const (
	GeneW1 = iota
	GeneL1
	GeneW3
	GeneL3
	GeneW5
	GeneL5
	GeneW6
	GeneL6
	GeneW7
	GeneL7
	GeneItail
	GeneK6
	GeneCc
	GeneCs
	GeneCL
	NumGenes
)

// GeneName returns a short label for a gene index.
func GeneName(i int) string {
	return [...]string{"W1", "L1", "W3", "L3", "W5", "L5", "W6", "L6",
		"W7", "L7", "Itail", "K6", "Cc", "Cs", "CL"}[i]
}

// geneMap holds one gene's physical range and scale. lnRatio caches
// ln(hi/lo) for log-scaled genes (filled by init), so decode costs one exp
// instead of a pow — the same transform the batch path applies one gene
// column at a time.
type geneMap struct {
	lo, hi  float64
	log     bool
	lnRatio float64
}

func init() {
	for i := range genes {
		if genes[i].log {
			genes[i].lnRatio = math.Log(genes[i].hi / genes[i].lo)
		}
	}
}

func (g *geneMap) decode(u float64) float64 {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	if g.log {
		return g.lo * math.Exp(u*g.lnRatio)
	}
	return g.lo + (g.hi-g.lo)*u
}

func (g geneMap) encode(v float64) float64 {
	if g.log {
		return math.Log(v/g.lo) / math.Log(g.hi/g.lo)
	}
	return (v - g.lo) / (g.hi - g.lo)
}

const um = 1e-6
const pf = 1e-12

// CLMax is the upper edge of the explored load range (F): the paper plots
// and partitions load capacitance over 0–5 pF.
const CLMax = 5 * pf

// CLMin is the smallest load the problem considers.
const CLMin = 0.05 * pf

var genes = [NumGenes]geneMap{
	GeneW1:    {lo: 2 * um, hi: 500 * um, log: true},
	GeneL1:    {lo: 0.18 * um, hi: 2 * um, log: false},
	GeneW3:    {lo: 2 * um, hi: 500 * um, log: true},
	GeneL3:    {lo: 0.18 * um, hi: 2 * um, log: false},
	GeneW5:    {lo: 2 * um, hi: 1000 * um, log: true},
	GeneL5:    {lo: 0.18 * um, hi: 2 * um, log: false},
	GeneW6:    {lo: 2 * um, hi: 2000 * um, log: true},
	GeneL6:    {lo: 0.18 * um, hi: 2 * um, log: false},
	GeneW7:    {lo: 2 * um, hi: 2000 * um, log: true},
	GeneL7:    {lo: 0.18 * um, hi: 2 * um, log: false},
	GeneItail: {lo: 2e-6, hi: 2e-3, log: true},
	GeneK6:    {lo: 0.5, hi: 20, log: true},
	GeneCc:    {lo: 0.1 * pf, hi: 10 * pf, log: true},
	GeneCs:    {lo: 0.2 * pf, hi: 8 * pf, log: true},
	GeneCL:    {lo: CLMin, hi: CLMax, log: false},
}

// Problem is the integrator sizing problem. Construct with New.
type Problem struct {
	tech    process.Tech
	corners []process.Tech
	sys     scint.System
	spec    Spec
	rob     *yield.Estimator
	mc      []mcSample
	lo, hi  []float64
}

// mcSample is one stored Monte-Carlo point of the attached estimator,
// resolved once in New for the batch path: the perturbed technology
// (Tech.Perturb allocates the variant's name, so it cannot run per batch)
// and the sample's z-vector, whose local-mismatch coordinates the batch
// path applies with perturbDesign's expressions.
type mcSample struct {
	tech process.Tech
	z    [yield.Dims]float64
}

// Option mutates a Problem during construction.
type Option func(*Problem)

// WithRobustness attaches a Monte-Carlo robustness estimator; without it
// the robustness constraint is skipped (treated as satisfied).
func WithRobustness(e *yield.Estimator) Option {
	return func(p *Problem) { p.rob = e }
}

// WithCorners restricts the corner sweep (default: all five).
func WithCorners(cs ...process.Corner) Option {
	return func(p *Problem) {
		p.corners = p.corners[:0]
		for _, c := range cs {
			p.corners = append(p.corners, p.tech.AtCorner(c))
		}
	}
}

// New builds the sizing problem for a technology and specification.
func New(tech process.Tech, spec Spec, opts ...Option) *Problem {
	p := &Problem{
		tech: tech,
		sys:  scint.DefaultSystem(tech.VDD),
		spec: spec,
	}
	p.sys.EpsSettle = spec.SEMax
	for _, c := range process.Corners() {
		p.corners = append(p.corners, tech.AtCorner(c))
	}
	p.lo = make([]float64, NumGenes)
	p.hi = make([]float64, NumGenes)
	for i := range p.hi {
		p.hi[i] = 1
	}
	for _, o := range opts {
		o(p)
	}
	if p.rob != nil {
		p.mc = make([]mcSample, p.rob.Samples())
		for k := range p.mc {
			p.mc[k].z = p.rob.Sample(k)
			p.mc[k].tech = p.tech.Perturb(p.mc[k].z[:])
		}
	}
	return p
}

// Name implements objective.Problem.
func (p *Problem) Name() string { return "scint-sizing-" + p.spec.Name }

// NumVars implements objective.Problem.
func (p *Problem) NumVars() int { return NumGenes }

// NumObjectives implements objective.Problem.
func (p *Problem) NumObjectives() int { return 2 }

// NumConstraints implements objective.Problem.
func (p *Problem) NumConstraints() int { return NumCons }

// Bounds implements objective.Problem (normalized genes).
func (p *Problem) Bounds() ([]float64, []float64) { return p.lo, p.hi }

// Spec returns the active specification.
func (p *Problem) Spec() Spec { return p.spec }

// System returns the integrator evaluation context.
func (p *Problem) System() scint.System { return p.sys }

// Tech returns the typical-corner technology.
func (p *Problem) Tech() *process.Tech { return &p.tech }

// checkGenome validates the genome length up front, so a malformed caller
// fails with a descriptive panic instead of an index error deep inside the
// decode (the pool converts the panic to a typed, indexed evaluation error).
func checkGenome(x []float64) {
	if len(x) != NumGenes {
		panic(fmt.Sprintf("sizing: genome has %d genes, want %d", len(x), NumGenes))
	}
}

// Decode maps a normalized gene vector to the physical design point.
func (p *Problem) Decode(x []float64) scint.Design {
	checkGenome(x)
	return scint.Design{
		Amp: opamp.Sizing{
			W1: genes[GeneW1].decode(x[GeneW1]), L1: genes[GeneL1].decode(x[GeneL1]),
			W3: genes[GeneW3].decode(x[GeneW3]), L3: genes[GeneL3].decode(x[GeneL3]),
			W5: genes[GeneW5].decode(x[GeneW5]), L5: genes[GeneL5].decode(x[GeneL5]),
			W6: genes[GeneW6].decode(x[GeneW6]), L6: genes[GeneL6].decode(x[GeneL6]),
			W7: genes[GeneW7].decode(x[GeneW7]), L7: genes[GeneL7].decode(x[GeneL7]),
			Itail: genes[GeneItail].decode(x[GeneItail]),
			K6:    genes[GeneK6].decode(x[GeneK6]),
			Cc:    genes[GeneCc].decode(x[GeneCc]),
		},
		Cs: genes[GeneCs].decode(x[GeneCs]),
		CL: genes[GeneCL].decode(x[GeneCL]),
	}
}

// Encode maps a physical design point back to normalized genes (inverse of
// Decode; used by tests and by the circuit CLI).
func (p *Problem) Encode(d scint.Design) []float64 {
	x := make([]float64, NumGenes)
	x[GeneW1] = genes[GeneW1].encode(d.Amp.W1)
	x[GeneL1] = genes[GeneL1].encode(d.Amp.L1)
	x[GeneW3] = genes[GeneW3].encode(d.Amp.W3)
	x[GeneL3] = genes[GeneL3].encode(d.Amp.L3)
	x[GeneW5] = genes[GeneW5].encode(d.Amp.W5)
	x[GeneL5] = genes[GeneL5].encode(d.Amp.L5)
	x[GeneW6] = genes[GeneW6].encode(d.Amp.W6)
	x[GeneL6] = genes[GeneL6].encode(d.Amp.L6)
	x[GeneW7] = genes[GeneW7].encode(d.Amp.W7)
	x[GeneL7] = genes[GeneL7].encode(d.Amp.L7)
	x[GeneItail] = genes[GeneItail].encode(d.Amp.Itail)
	x[GeneK6] = genes[GeneK6].encode(d.Amp.K6)
	x[GeneCc] = genes[GeneCc].encode(d.Amp.Cc)
	x[GeneCs] = genes[GeneCs].encode(d.Cs)
	x[GeneCL] = genes[GeneCL].encode(d.CL)
	return x
}

// specViolations converts one corner's performance into the violation
// vector entries it can decide (everything except robustness).
func (p *Problem) specViolations(perf *scint.Perf, v []float64) {
	p.accViolations(perf.DRdB, perf.OutputRange, perf.SettleTime,
		perf.SettleErr, perf.WorstSatMargin, perf.BiasOK,
		perf.PhaseMarginDeg, perf.Area, v)
}

// accViolations is the value-form core of specViolations, shared with the
// lane-major batch path (which holds the corner performances as planes
// rather than Perf structs).
func (p *Problem) accViolations(drdb, outputRange, settleTime, settleErr,
	worstSatMargin float64, biasOK bool, phaseMarginDeg, area float64, v []float64) {
	s := &p.spec
	acc := func(idx int, vio float64) {
		if vio > v[idx] {
			v[idx] = vio
		}
	}
	acc(ConsDR, clampVio((s.DRMinDB-drdb)/10, 10))
	acc(ConsOR, clampVio((s.ORMin-outputRange)/s.ORMin, 10))
	acc(ConsST, clampVio((settleTime-s.STMax)/s.STMax, 10))
	acc(ConsSE, clampVio((settleErr-s.SEMax)/s.SEMax, 10))
	sat := -worstSatMargin / 0.1
	if !biasOK {
		sat += 5
	}
	acc(ConsSatRegion, clampVio(sat, 20))
	acc(ConsPM, clampVio((s.PMMinDeg-phaseMarginDeg)/s.PMMinDeg, 10))
	acc(ConsArea, clampVio((area-s.AreaMax)/s.AreaMax, 10))
}

// passes reports whether one perturbed-performance sample meets the spec
// (the Monte-Carlo pass criterion; robustness and area are excluded — area
// does not vary statistically in this model).
func (p *Problem) passes(perf *scint.Perf) bool {
	return p.passValues(perf.BiasOK, perf.DRdB, perf.OutputRange,
		perf.SettleTime, perf.SettleErr, perf.WorstSatMargin, perf.PhaseMarginDeg)
}

// passValues is the value-form core of passes, shared with the lane-major
// batch path (which holds the sample performances as planes).
func (p *Problem) passValues(biasOK bool, drdb, outputRange, settleTime,
	settleErr, worstSatMargin, phaseMarginDeg float64) bool {
	s := &p.spec
	return biasOK &&
		drdb >= s.DRMinDB &&
		outputRange >= s.ORMin &&
		settleTime <= s.STMax &&
		settleErr <= s.SEMax &&
		worstSatMargin >= 0 &&
		phaseMarginDeg >= s.PMMinDeg
}

// nearFeasible is the gate in front of the Monte-Carlo robustness pass: a
// design reaches it only when its worst-corner violations of every
// constraint the samples re-check are already small.
func nearFeasible(v []float64) bool {
	return v[ConsDR] < 0.2 && v[ConsST] < 0.2 && v[ConsSE] < 0.2 &&
		v[ConsOR] < 0.2 && v[ConsSatRegion] < 0.2 && v[ConsPM] < 0.2
}

// Evaluate implements objective.Problem: decode, sweep corners for
// worst-case constraint violations, estimate robustness, and emit
// (power, −CL) objectives. It is the scalar reference implementation the
// lane-major EvaluateBatch is property-tested bit-identical against.
func (p *Problem) Evaluate(x []float64) objective.Result {
	var out objective.Result
	p.EvaluateInto(x, &out)
	return out
}

// EvaluateInto implements objective.IntoProblem: Evaluate writing into a
// caller-owned Result, so callers that recycle their Result (the ga
// evaluation plumbing routes single-individual evaluations through a pooled
// scratch) pay no per-call result allocations.
func (p *Problem) EvaluateInto(x []float64, out *objective.Result) {
	out.Prepare(2, NumCons)
	d := p.Decode(x)
	v := out.Violations
	var nominal scint.Perf
	var ws opamp.WarmState
	for i := range p.corners {
		perf := scint.EvaluateWarm(&p.corners[i], d, p.sys, &ws)
		if p.corners[i].Corner == process.TT {
			nominal = perf
		}
		p.specViolations(&perf, v)
	}
	// Robustness only matters once the nominal design is plausible; gating
	// it on a near-feasible nominal skips the Monte-Carlo for the hopeless
	// bulk of the search space (a large constant-factor speedup) without
	// changing the feasible region.
	if p.rob != nil {
		if nearFeasible(v) {
			r := p.rob.RobustnessWithDesign(&p.tech, d, p.sys, perturbDesign, p.passes)
			v[ConsRobust] = clampVio((p.spec.RobustMin-r)/p.spec.RobustMin, 10)
		} else {
			// Hopeless designs inherit a pessimistic robustness violation
			// tied to how infeasible they are, preserving gradient.
			v[ConsRobust] = clampVio(p.spec.RobustMin, 10)
		}
	}
	out.Objectives[0] = nominal.Power
	out.Objectives[1] = -d.CL
}

// NominalPerf evaluates the design at the typical corner only (reporting
// and CLI use).
func (p *Problem) NominalPerf(x []float64) scint.Perf {
	d := p.Decode(x)
	return scint.Evaluate(&p.tech, d, p.sys)
}

// CornerPerf evaluates the design at every corner, returning them in
// process.Corners() order.
func (p *Problem) CornerPerf(x []float64) []scint.Perf {
	d := p.Decode(x)
	out := make([]scint.Perf, len(p.corners))
	for i := range p.corners {
		out[i] = scint.Evaluate(&p.corners[i], d, p.sys)
	}
	return out
}

// Robustness runs the Monte-Carlo estimator for one design (1.0 when no
// estimator is attached).
func (p *Problem) Robustness(x []float64) float64 {
	if p.rob == nil {
		return 1
	}
	return p.rob.RobustnessWithDesign(&p.tech, p.Decode(x), p.sys, perturbDesign, p.passes)
}

// mismatchTech provides the Pelgrom coefficients for perturbDesign (the
// coefficients do not vary across corners in this model).
var mismatchTech = process.Default018()

// perturbDesign maps the estimator's local-mismatch coordinates onto the
// design parameters they physically scatter, with Pelgrom-scaled sigmas:
// z[5] perturbs the second-stage mirror ratio K6 (M6/M7 current-factor
// mismatch) and z[6] the tail current (bias-mirror mismatch). Global
// process shifts are already in the perturbed technology.
func perturbDesign(d scint.Design, z []float64) scint.Design {
	if len(z) < 7 {
		return d
	}
	sigmaK6, sigmaIt := mismatchSigmas(d.Amp.W5, d.Amp.L5, d.Amp.W6, d.Amp.L6, d.Amp.W7, d.Amp.L7)
	d.Amp.K6 *= 1 + z[5]*sigmaK6
	d.Amp.Itail *= 1 + z[6]*sigmaIt
	return d
}

// mismatchSigmas returns perturbDesign's Pelgrom-scaled relative sigmas
// for a design's device geometry: the K6 mirror-ratio sigma (M6/M7) and
// the tail-current sigma (M5).
func mismatchSigmas(w5, l5, w6, l6, w7, l7 float64) (sigmaK6, sigmaIt float64) {
	sigmaK6 = math.Hypot(
		mismatchTech.PMOSDev.MismatchSigmaBeta(w6, l6),
		mismatchTech.NMOSDev.MismatchSigmaBeta(w7, l7))
	sigmaIt = mismatchTech.NMOSDev.MismatchSigmaBeta(w5, l5)
	return sigmaK6, sigmaIt
}

// ReportedPoint converts a minimized objective vector (power, −CL) into the
// paper's reported axes (CL in farads, power in watts).
func ReportedPoint(obj []float64) (cl, power float64) {
	return -obj[1], obj[0]
}

// HVUnit is the unit the paper reports hypervolumes in, 0.1 mW·pF, in W·F:
// a hypervolume of points on ReportedPoint's axes divided by HVUnit reads
// in the paper's numbers.
const HVUnit = 0.1e-3 * 1e-12

// ObjectiveRangeCL returns the minimized-objective range of the −CL axis,
// which SACGA partitions: [−CLMax, −CLMin].
func ObjectiveRangeCL() (lo, hi float64) { return -CLMax, -CLMin }

func clampVio(v, cap float64) float64 {
	if v <= 0 {
		return 0
	}
	if v > cap {
		return cap
	}
	return v
}
