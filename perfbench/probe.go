package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"sacga/internal/ga"
	"sacga/internal/mesacga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/sacga"
	"sacga/internal/search"
	"sacga/internal/serve"
)

// ckptProbe times, in this process, what a worker does with a sealed
// replica checkpoint: seal it (search.EncodeCheckpoint), unseal it
// (search.DecodeCheckpoint), restore an engine from it (Engine.Restore,
// which replays the RNG from its seed) and, optionally, step that engine
// once under a traced problem.
type ckptProbe struct {
	bytes, encode, decode, restore, step, self []float64
	lastDraws                                  uint64 // RNG draws the last set's restores replayed
}

// addSet probes one set of checkpoints — an epoch's replicas, or a
// workload's final engines — restoring checkpoint i under opts(i) and a
// fresh problem from build.
func (p *ckptProbe) addSet(cps []*search.Checkpoint, opts func(i int) search.Options, build func() (objective.Problem, error), step bool) error {
	var draws uint64
	for i, cp := range cps {
		prob, err := build()
		if err != nil {
			return err
		}
		if err := p.add(cp, opts(i), prob, step); err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		draws += rngDraws(cp)
	}
	p.lastDraws = draws
	return nil
}

func (p *ckptProbe) add(cp *search.Checkpoint, opts search.Options, prob objective.Problem, step bool) error {
	t0 := now()
	data, err := search.EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	t1 := now()
	dec, err := search.DecodeCheckpoint("perfbench probe", data)
	if err != nil {
		return err
	}
	t2 := now()
	eng, err := search.New(dec.Algo)
	if err != nil {
		return err
	}
	tr := &tracer{}
	tp := &tracedProblem{Problem: prob, tr: tr}
	t3 := now()
	if err := eng.Restore(objective.NewCounter(tp), opts, dec); err != nil {
		return err
	}
	t4 := now()
	p.bytes = append(p.bytes, float64(len(data)))
	p.encode = append(p.encode, ms(t1-t0))
	p.decode = append(p.decode, ms(t2-t1))
	p.restore = append(p.restore, ms(t4-t3))
	if !step || eng.Done() {
		return nil
	}
	id := begin(tr, tp)
	start := now()
	if err := eng.Step(); err != nil {
		return err
	}
	s := span{ID: id, Name: "search.step", Start: start, End: now()}
	p.step = append(p.step, ms(s.dur()))
	p.self = append(p.self, ms(s.dur()-newIndex(tr.spans).covered(s, "objective.eval")))
	return nil
}

// fill sets the search layer's checkpoint metrics (and, when the probe
// stepped, its step metrics).
func (p *ckptProbe) fill(layers map[string]float64) {
	if len(p.bytes) == 0 {
		return
	}
	layers["search.ckpt_bytes"] = lowerMedian(p.bytes)
	layers["search.ckpt_encode_ms_p50"] = median(p.encode)
	layers["search.ckpt_decode_ms_p50"] = median(p.decode)
	layers["search.restore_ms_p50"] = median(p.restore)
	layers["search.replay_draws_last"] = float64(p.lastDraws)
	if len(p.step) > 0 {
		layers["search.step_ms_p50"] = median(p.step)
		layers["search.self_ms_p50"] = median(p.self)
	}
}

// rngDraws is the number of RNG draws restoring cp replays.
func rngDraws(cp *search.Checkpoint) uint64 {
	switch st := cp.State.(type) {
	case *nsga2.Snapshot:
		return st.RNG.Draws
	case *sacga.Snapshot:
		return st.RNG.Draws
	case *mesacga.Snapshot:
		if st.Inner != nil {
			return st.Inner.RNG.Draws
		}
	}
	return 0
}

// digester hashes fronts bit for bit — every float's IEEE bits, with
// lengths framing each vector — so equal digests mean equal fronts.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) vec(v []float64) {
	d.u(uint64(len(v)))
	for _, f := range v {
		d.u(math.Float64bits(f))
	}
}

func (d *digester) front(front []serve.FrontPoint) {
	d.u(uint64(len(front)))
	for _, p := range front {
		d.vec(p.X)
		d.vec(p.Objectives)
		d.u(math.Float64bits(p.Violation))
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// frontDigest is one front's digest.
func frontDigest(front []serve.FrontPoint) string {
	d := newDigester()
	d.front(front)
	return d.sum()
}

// popDigest is the digest of a population's front in wire form.
func popDigest(pop ga.Population) string { return frontDigest(wireFront(pop)) }

// wireFront is a front in the job server's wire form: its finite points
// (JSON carries no ±Inf, so the server drops quarantined ones). The points
// share the individuals' slices.
func wireFront(pop ga.Population) []serve.FrontPoint {
	out := make([]serve.FrontPoint, 0, len(pop))
	for _, ind := range pop {
		if finite(ind.Violation) && allFinite(ind.Objectives) {
			out = append(out, serve.FrontPoint{X: ind.X, Objectives: ind.Objectives, Violation: ind.Violation})
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !finite(v) {
			return false
		}
	}
	return true
}
