package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// span is one timed interval of a traced run: a name, a start and an end
// on the wall clock in Unix nanoseconds (so spans written by worker
// processes line up with the coordinator's), and the span that caused it
// (0 for a root). A worker's request spans also carry the request's key,
// which joins them to the coordinator epoch that sent them; the
// coordinator's epoch spans carry the epoch they ran.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Replica int    `json:"replica,omitempty"`
	Epoch   int    `json:"epoch,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Init    bool   `json:"init,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func now() int64 { return time.Now().UnixNano() }

// tracer keeps a run's spans in memory until the run ends. Safe for
// concurrent use.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// open allocates a span ID, so children can name their parent before it
// ends.
func (t *tracer) open() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span and publishes it as the parent of tp's objective
// spans. Untraced (tr nil) it does nothing.
func begin(tr *tracer, tp *tracedProblem) int64 {
	if tr == nil {
		return 0
	}
	id := tr.open()
	if tp != nil {
		tp.parent.Store(id)
	}
	return id
}

// index groups a finished trace for the self-time arithmetic.
type index struct {
	byName   map[string][]span
	children map[int64][]span
}

func newIndex(spans []span) *index {
	ix := &index{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// covered is how much of parent's interval its children named child cover.
func (ix *index) covered(parent span, child string) int64 {
	return unionNanos(ix.childIntervals(parent.ID, child), parent.Start, parent.End)
}

// coveredID is how much time the children named child of the span with ID
// id cover, for parents that are not spans themselves.
func (ix *index) coveredID(id int64, child string) int64 {
	return unionNanos(ix.childIntervals(id, child), math.MinInt64, math.MaxInt64)
}

func (ix *index) childIntervals(id int64, child string) [][2]int64 {
	var ivs [][2]int64
	for _, c := range ix.children[id] {
		if c.Name == child {
			ivs = append(ivs, [2]int64{c.Start, c.End})
		}
	}
	return ivs
}

// durations lists the durations of the spans named name, in milliseconds.
func (ix *index) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// childDurations lists, in milliseconds, the durations of the spans named
// child whose parent is a span named parent.
func (ix *index) childDurations(parent, child string) []float64 {
	var out []float64
	for _, p := range ix.byName[parent] {
		for _, c := range ix.children[p.ID] {
			if c.Name == child {
				out = append(out, ms(c.dur()))
			}
		}
	}
	return out
}

// selfTimes lists, in milliseconds, each span named name minus the part
// its children named child cover.
func (ix *index) selfTimes(name, child string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(s.dur()-ix.covered(s, child)))
	}
	return out
}

// tracedProblem wraps a problem under test: every evaluation call becomes
// an objective.eval span under the span its driver last published, and
// evaluations and quarantine-worthy results are counted. It implements
// BatchProblem and IntoProblem and forwards to the wrapped problem's own
// fast paths, so engines evaluate exactly as they would without it.
type tracedProblem struct {
	objective.Problem
	tr          *tracer
	parent      atomic.Int64
	evals       atomic.Int64
	quarantined atomic.Int64
}

// Unwrap exposes the wrapped problem to objective.Interrupt.
func (p *tracedProblem) Unwrap() objective.Problem { return p.Problem }

// Evaluate implements objective.Problem.
func (p *tracedProblem) Evaluate(x []float64) objective.Result {
	start := now()
	defer p.countPanic()
	r := p.Problem.Evaluate(x)
	p.done(start, 1, countBad(r))
	return r
}

// EvaluateInto implements objective.IntoProblem.
func (p *tracedProblem) EvaluateInto(x []float64, out *objective.Result) {
	start := now()
	defer p.countPanic()
	if ip, ok := p.Problem.(objective.IntoProblem); ok {
		ip.EvaluateInto(x, out)
	} else {
		*out = p.Problem.Evaluate(x)
	}
	p.done(start, 1, countBad(*out))
}

// EvaluateBatch implements objective.BatchProblem. A batch that panics is
// not counted: the evaluation layer re-evaluates its rows one by one.
func (p *tracedProblem) EvaluateBatch(xs [][]float64, out []objective.Result) {
	start := now()
	objective.EvaluateBatch(p.Problem, xs, out)
	n := 0
	for i := range out {
		n += countBad(out[i])
	}
	p.done(start, len(xs), n)
}

func (p *tracedProblem) done(start int64, evals, quarantined int) {
	end := now()
	p.evals.Add(int64(evals))
	p.quarantined.Add(int64(quarantined))
	p.tr.add(span{ID: p.tr.open(), Parent: p.parent.Load(), Name: "objective.eval", Start: start, End: end})
}

// countPanic counts a panicking evaluation as quarantined and lets the
// panic continue to the evaluation layer that quarantines it.
func (p *tracedProblem) countPanic() {
	if r := recover(); r != nil {
		p.quarantined.Add(1)
		panic(r)
	}
}

// countBad is 1 for a result the evaluation layer quarantines — a NaN
// anywhere or a -Inf objective — and 0 otherwise.
func countBad(r objective.Result) int {
	if math.IsNaN(r.TotalViolation()) {
		return 1
	}
	for _, v := range r.Objectives {
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return 1
		}
	}
	return 0
}

// tracedEngine delegates to the engine under test and records a span
// around every Step and Population call. Handed to search.NewDriver, it
// splits one Driver.Step into the engine's step and the pooled view the
// driver publishes. layer prefixes the span names.
type tracedEngine struct {
	search.Engine
	tr     *tracer
	layer  string
	parent int64 // the Driver.Step span in flight
}

// Step implements search.Engine.
func (e *tracedEngine) Step() error {
	start := now()
	err := e.Engine.Step()
	e.tr.add(span{ID: e.tr.open(), Parent: e.parent, Name: e.layer + ".step", Start: start, End: now()})
	return err
}

// Population implements search.Engine.
func (e *tracedEngine) Population() ga.Population {
	start := now()
	pop := e.Engine.Population()
	e.tr.add(span{ID: e.tr.open(), Parent: e.parent, Name: e.layer + ".pool_view", Start: start, End: now()})
	return pop
}

// drive runs an initialized engine to completion through search.Driver and
// returns the duration of every Driver.Step in milliseconds. Traced, each
// step is a span named stepName under parent, carrying the generation it
// ran in its Epoch field; with a layer the engine's Step and Population
// calls become spans under it, and tp's objective spans do. probe, when
// set, sees the engine after every step.
func drive(eng search.Engine, tr *tracer, tp *tracedProblem, stepName, layer string, parent int64, probe func(search.Engine)) ([]float64, *search.Result, error) {
	driven := eng
	var te *tracedEngine
	if tr != nil && layer != "" {
		te = &tracedEngine{Engine: eng, tr: tr, layer: layer}
		driven = te
	}
	d := search.NewDriver(driven)
	var steps []float64
	for {
		gen := eng.Generation()
		id := begin(tr, tp)
		if te != nil {
			te.parent = id
		}
		start := now()
		more, err := d.Step(context.Background())
		end := now()
		if err != nil {
			return steps, nil, fmt.Errorf("generation %d: %w", gen+1, err)
		}
		if !more {
			break
		}
		if tr != nil {
			tr.add(span{ID: id, Parent: parent, Name: stepName, Start: start, End: end, Epoch: gen})
		}
		steps = append(steps, ms(end-start))
		if probe != nil {
			probe(eng)
		}
	}
	if te != nil {
		te.parent = 0
	}
	return steps, d.Result(), nil
}

// fleetCounters is what the benchmark's transport wrapper counts.
type fleetCounters struct {
	dials atomic.Int64
	bytes atomic.Int64
}

// countingTransport wraps a fleet transport, counting the connections it
// opens and the bytes read and written on them after the handshake.
type countingTransport struct {
	fleet.Transport
	counts *fleetCounters
}

// Dial implements fleet.Transport.
func (t countingTransport) Dial() (fleet.Conn, error) {
	conn, err := t.Transport.Dial()
	if err != nil {
		return nil, err
	}
	t.counts.dials.Add(1)
	return &countingConn{Conn: conn, counts: t.counts}, nil
}

type countingConn struct {
	fleet.Conn
	counts *fleetCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counts.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.bytes.Add(int64(n))
	return n, err
}

// SetDeadline keeps the lease deadlines the wrapped connection supports
// (fleet.Link arms them through fleet.Deadliner).
func (c *countingConn) SetDeadline(t time.Time) error {
	if d, ok := c.Conn.(fleet.Deadliner); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// maxRSSKB is this process's peak resident set so far, in KiB.
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
