package search

import (
	"sacga/internal/ga"
	"sacga/internal/hypervolume"
)

// Frame is the per-generation view handed to observers. The same Frame
// value is reused across generations — observers must not retain it or the
// population it points at (Clone what must be kept; engines recycle
// population buffers between steps).
type Frame struct {
	// Gen is the generation just completed (1-based; continues across a
	// checkpoint/resume boundary).
	Gen int
	// Pop is a live view of the population after the generation's
	// environmental selection.
	Pop ga.Population
	// Evals is the cumulative number of objective evaluations.
	Evals int64
	// Engine is the engine being driven, for observers that need
	// algorithm-specific state (e.g. the SACGA partition grid).
	Engine Engine
}

// Observer receives a callback after every generation of a driven run.
// Observers run synchronously on the driver goroutine, in registration
// order; an expensive observer slows the run down.
type Observer interface {
	Observe(f *Frame)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(f *Frame)

// Observe implements Observer.
func (fn ObserverFunc) Observe(f *Frame) { fn(f) }

// HVSample is one generation's hypervolume reading.
type HVSample struct {
	Gen   int
	Evals int64
	HV    float64
}

// HypervolumeObserver traces front quality per generation — the instrument
// behind the paper's figs. 9/10 convergence curves. Each sampled generation
// it projects the population to 2-D points and reduces them to one scalar
// through a pooled, allocation-free staircase recompute (hypervolume.Calc
// reduces any point set to its non-dominated staircase internally, so no
// front extraction is needed). The recompute costs a few microseconds per
// generation at pop 100, well under 1% of a generation, so there is no
// incremental structure behind it; Score swaps in another metric.
//
// The zero value scores feasible individuals' first two objectives with
// PaperMetric, the staircase of the paper's reported integrator plane,
// which maximizes X and minimizes Y. On other axes that staircase is not a
// dominated hypervolume: on a front of two minimized objectives it
// collapses to X_max·Y_min, the one step under the member that leads in
// f0, which tends to 0 as the front converges. Callers that want a
// hypervolume set Project and Score; circuit jobs and cmd/sacga use
// probspec.CircuitPoint and probspec.CircuitHV, the reported (CL, Power)
// plane in 0.1 mW·pF. A HypervolumeObserver is not safe for concurrent use.
type HypervolumeObserver struct {
	// Project maps an individual to a 2-D point; returning false skips the
	// individual. nil selects the default: feasible individuals' first two
	// objectives.
	Project func(ind *ga.Individual) (hypervolume.Point2, bool)
	// Score reduces the projected points to the scalar metric. nil selects
	// the pooled PaperMetric staircase (lower is better, +Inf when no
	// point projects).
	Score func(pts []hypervolume.Point2) float64
	// Every samples one generation in n; <= 1 samples every generation.
	Every int
	// Trace accumulates the samples in generation order.
	Trace []HVSample

	calc hypervolume.Calc
	pts  []hypervolume.Point2
}

// Observe implements Observer.
func (o *HypervolumeObserver) Observe(f *Frame) {
	if o.Every > 1 && f.Gen%o.Every != 0 {
		return
	}
	project := o.Project
	if project == nil {
		project = defaultProject
	}
	if cap(o.pts) < len(f.Pop) {
		o.pts = make([]hypervolume.Point2, 0, 2*len(f.Pop))
	}
	o.pts = o.pts[:0]
	for _, ind := range f.Pop {
		if p, ok := project(ind); ok {
			o.pts = append(o.pts, p)
		}
	}
	hv := 0.0
	if o.Score != nil {
		hv = o.Score(o.pts)
	} else {
		hv = o.calc.PaperMetric(o.pts)
	}
	o.Trace = append(o.Trace, HVSample{Gen: f.Gen, Evals: f.Evals, HV: hv})
}

// Last returns the most recent sample (zero HVSample when none yet).
func (o *HypervolumeObserver) Last() HVSample {
	if len(o.Trace) == 0 {
		return HVSample{}
	}
	return o.Trace[len(o.Trace)-1]
}

func defaultProject(ind *ga.Individual) (hypervolume.Point2, bool) {
	if !ind.Feasible() || len(ind.Objectives) < 2 {
		return hypervolume.Point2{}, false
	}
	return hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]}, true
}
