// Package fault is the deterministic fault-injection harness behind the
// chaos test suite: it wraps an objective.Problem and makes a seeded,
// reproducible subset of evaluations misbehave — panic, return NaN/-Inf
// results or run slow — and provides torn-write helpers (bit flips,
// truncation) for attacking checkpoint files.
//
// Injection decisions are keyed to the *content* of the evaluated decision
// vector (a seeded hash of its float64 bit patterns), never to call order,
// worker identity or wall time. The same population therefore receives the
// same faults whether it is evaluated sequentially, in parallel at any
// worker count, through the batch path or row by row — which is what lets
// the chaos suite assert bit-identical degraded results across worker
// counts, and lets the batch→scalar fallback re-encounter exactly the
// faults that aborted the batch.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sacga/internal/objective"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// KindPanic makes the evaluation panic.
	KindPanic Kind = iota
	// KindNaN corrupts the first objective to NaN.
	KindNaN
	// KindInf corrupts the first objective to -Inf ("infinitely good", the
	// dangerous direction: it would dominate every honest point).
	KindInf
	// KindSlow delays the evaluation by Config.SlowFor.
	KindSlow
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindNaN:
		return "nan"
	case KindInf:
		return "inf"
	case KindSlow:
		return "slow"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// ErrInjectedPanic is the panic value of a KindPanic injection, so tests
// can match the failure cause with errors.Is through the EvalError chain.
var ErrInjectedPanic = errors.New("fault: injected panic")

// Config sets the per-evaluation fault probabilities (each in [0,1]; they
// are cumulative, so their sum must be <= 1) and the slow-fault delay.
type Config struct {
	// Seed makes the injection schedule reproducible; different seeds mark
	// different decision vectors.
	Seed int64
	// PPanic, PNaN, PInf, PSlow are the marginal probabilities that an
	// evaluated decision vector draws each fault.
	PPanic, PNaN, PInf, PSlow float64
	// SlowFor is the KindSlow delay (default 1ms).
	SlowFor time.Duration
}

// Injector decides, per decision vector, whether and how to misbehave.
// One injector is shared by every wrapper/problem of a scenario.
type Injector struct {
	cfg    Config
	seed   uint64
	counts [numKinds]atomic.Int64
}

// NewInjector builds an injector for cfg.
func NewInjector(cfg Config) *Injector {
	if cfg.SlowFor <= 0 {
		cfg.SlowFor = time.Millisecond
	}
	if sum := cfg.PPanic + cfg.PNaN + cfg.PInf + cfg.PSlow; sum > 1 {
		panic(fmt.Sprintf("fault: probabilities sum to %g > 1", sum))
	}
	return &Injector{cfg: cfg, seed: mix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15)}
}

// Injected returns how many times fault k fired (diagnostic; a fault that
// aborts a batch is re-encountered by the row-wise fallback and counts
// each time).
func (in *Injector) Injected(k Kind) int64 { return in.counts[k].Load() }

// decide hashes x against the injector seed and maps the draw onto the
// cumulative probability thresholds.
func (in *Injector) decide(x []float64) (Kind, bool) {
	h := in.seed
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * 0x100000001b3 // FNV-1a over the bit patterns
	}
	u := float64(mix(h)>>11) / (1 << 53)
	c := &in.cfg
	switch {
	case u < c.PPanic:
		return KindPanic, true
	case u < c.PPanic+c.PNaN:
		return KindNaN, true
	case u < c.PPanic+c.PNaN+c.PInf:
		return KindInf, true
	case u < c.PPanic+c.PNaN+c.PInf+c.PSlow:
		return KindSlow, true
	}
	return 0, false
}

// mix is the splitmix64 finalizer: full-avalanche, so nearby gene vectors
// draw independent faults.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// trip executes the pre-evaluation side of a fault draw (panic, sleep);
// corrupting faults return and are applied to the result.
func (in *Injector) trip(k Kind) {
	in.counts[k].Add(1)
	switch k {
	case KindPanic:
		panic(ErrInjectedPanic)
	case KindSlow:
		time.Sleep(in.cfg.SlowFor)
	}
}

// corrupt applies a result-corrupting fault in place.
func corrupt(k Kind, objs []float64) {
	if len(objs) == 0 {
		return
	}
	switch k {
	case KindNaN:
		objs[0] = math.NaN()
	case KindInf:
		objs[0] = math.Inf(-1)
	}
}

// Problem wraps an objective.Problem with fault injection. It exposes the
// batch path regardless of the inner problem (falling back row by row), so
// pooled sub-batch evaluation — the path the chaos suite attacks — is
// always exercised.
type Problem struct {
	inner objective.Problem
	inj   *Injector
}

// Wrap builds the fault-injecting view of prob driven by inj.
func Wrap(prob objective.Problem, inj *Injector) *Problem {
	return &Problem{inner: prob, inj: inj}
}

// Name implements objective.Problem.
func (p *Problem) Name() string { return p.inner.Name() + "+faults" }

// NumVars implements objective.Problem.
func (p *Problem) NumVars() int { return p.inner.NumVars() }

// NumObjectives implements objective.Problem.
func (p *Problem) NumObjectives() int { return p.inner.NumObjectives() }

// NumConstraints implements objective.Problem.
func (p *Problem) NumConstraints() int { return p.inner.NumConstraints() }

// Bounds implements objective.Problem.
func (p *Problem) Bounds() (lo, hi []float64) { return p.inner.Bounds() }

// Evaluate implements objective.Problem with per-vector fault injection.
func (p *Problem) Evaluate(x []float64) objective.Result {
	k, hit := p.inj.decide(x)
	if hit {
		p.inj.trip(k)
	}
	res := p.inner.Evaluate(x)
	if hit {
		// Corrupt a copy: inner problems may return views of shared state.
		res.Objectives = append([]float64(nil), res.Objectives...)
		corrupt(k, res.Objectives)
	}
	return res
}

// EvaluateBatch implements objective.BatchProblem. A KindPanic draw
// anywhere in the batch trips before any row is written — the torn
// state the batch→scalar fallback must recover from; corrupting faults are
// applied per row after the inner evaluation.
func (p *Problem) EvaluateBatch(xs [][]float64, out []objective.Result) {
	for _, x := range xs {
		if k, hit := p.inj.decide(x); hit && k == KindPanic {
			p.inj.trip(k)
		}
	}
	objective.EvaluateBatch(p.inner, xs, out)
	for i, x := range xs {
		if k, hit := p.inj.decide(x); hit {
			p.inj.trip(k) // KindSlow sleeps; corrupting kinds just count
			corrupt(k, out[i].Objectives)
		}
	}
}
