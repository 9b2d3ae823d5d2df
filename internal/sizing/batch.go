package sizing

import (
	"sync"

	"sacga/internal/lanes"
	"sacga/internal/objective"
	"sacga/internal/opamp"
	"sacga/internal/process"
	"sacga/internal/scint"
	"sacga/internal/simd"
)

// EvaluateBatch implements objective.BatchProblem: the lane-major fast path
// of the sizing problem. The whole population is decoded into per-gene
// planes (one log/linear transform pass per gene column instead of one
// 15-gene decode per individual); those planes then feed the lane-major
// circuit engine directly — each process corner is one scint.EvaluateLanes
// call that advances every individual ("lane") through the bias solvers
// together, iteration-major with converged lanes masked out, warm-started
// per lane from the previous corner's solution exactly as Evaluate threads
// its WarmState per call. Results are emitted into the caller-owned out
// slices and all lane state lives in a recycled scratch arena, so the
// steady-state path performs no heap allocations.
//
// With a robustness estimator attached, the Monte-Carlo samples run on the
// same lane engine, sample-major: the lanes that pass the near-feasible
// gate are compacted, and each stored sample is one EvaluateLanes call at
// that sample's perturbed technology with every lane's mirror ratio and
// tail current scaled by its local mismatch, warm-started per lane from the
// previous sample as RobustnessWithDesign threads its WarmState. The
// BenchmarkCircuitEvaluateBatchRobust row times this path.
//
// For every i, out[i] is bit-identical to Evaluate(xs[i]): the two paths
// share the decode transform, the per-lane solver iteration schedules, the
// per-corner violation accumulation, the robustness gating, the mismatch
// scaling and the Monte-Carlo pass criterion.
func (p *Problem) EvaluateBatch(xs [][]float64, out []objective.Result) {
	n := len(xs)
	if n == 0 {
		return
	}
	for _, x := range xs {
		checkGenome(x)
	}
	out = out[:n]
	sc := getBatchScratch(n)
	defer putBatchScratch(sc)
	sc.decode(xs)

	for i := range out {
		out[i].Prepare(2, NumCons)
	}

	// Corner-major lane sweep: each corner advances the whole batch through
	// the lane engine, per-lane warm planes threading corner c−1's bias
	// solution into corner c.
	dl := sc.designLanes(n)
	sc.warm.Reset(n)
	for ci := range p.corners {
		t := &p.corners[ci]
		scint.EvaluateLanes(t, n, dl, p.sys, &sc.warm, &sc.perf, &sc.eng)
		tt := t.Corner == process.TT
		for i := 0; i < n; i++ {
			if tt {
				sc.nomPow[i] = sc.perf.Power[i]
			}
			p.accViolations(sc.perf.DRdB[i], sc.perf.OutputRange[i],
				sc.perf.SettleTime[i], sc.perf.SettleErr[i],
				sc.perf.WorstSatMargin[i], sc.perf.BiasOK.Get(i),
				sc.perf.PhaseMarginDeg[i], sc.perf.Area[i], out[i].Violations)
		}
	}

	cl := sc.plane(GeneCL, n)
	for i := 0; i < n; i++ {
		out[i].Objectives[0] = sc.nomPow[i]
		out[i].Objectives[1] = -cl[i]
	}
	if p.rob != nil {
		p.robustLanes(sc, out)
	}
}

// robustLanes fills the robustness violation of every result, with the
// same gating as Evaluate: hopeless designs inherit the pessimistic
// violation, and near-feasible ones are compacted to the front of the gene
// planes (overwriting them, so it runs after the objectives are emitted)
// and swept through the stored samples sample-major on the lane engine.
func (p *Problem) robustLanes(sc *batchScratch, out []objective.Result) {
	m := 0
	for i := range out {
		v := out[i].Violations
		if nearFeasible(v) {
			sc.mcIdx[m] = i
			m++
		} else {
			v[ConsRobust] = clampVio(p.spec.RobustMin, 10)
		}
	}
	if m == 0 {
		return
	}
	// The lane indices ascend, so idx[j] >= j and every source is read
	// before a lower lane's write can reach it.
	idx := sc.mcIdx[:m]
	for g := range genes {
		col := sc.plane(g, len(out))
		for j, i := range idx {
			col[j] = col[i]
		}
	}

	dl := sc.sampleLanes(m)
	for j := 0; j < m; j++ {
		sc.passN[j] = 0
	}
	for k := range p.mc {
		p.evalSample(sc, dl, k)
		for j := 0; j < m; j++ {
			if p.passValues(sc.perf.BiasOK.Get(j), sc.perf.DRdB[j], sc.perf.OutputRange[j],
				sc.perf.SettleTime[j], sc.perf.SettleErr[j], sc.perf.WorstSatMargin[j],
				sc.perf.PhaseMarginDeg[j]) {
				sc.passN[j]++
			}
		}
	}
	for j, i := range idx {
		r := 1.0 // no samples: RobustnessWithDesign's value
		if len(p.mc) > 0 {
			r = float64(sc.passN[j]) / float64(len(p.mc))
		}
		out[i].Violations[ConsRobust] = clampVio((p.spec.RobustMin-r)/p.spec.RobustMin, 10)
	}
}

// evalSample evaluates the lanes of dl (a sampleLanes view) at stored
// Monte-Carlo sample k, scaling each lane's K6 and Itail by the sample's
// local mismatch with perturbDesign's expressions. The performance planes
// land in sc.perf.
func (p *Problem) evalSample(sc *batchScratch, dl scint.DesignLanes, k int) {
	m := len(dl.CL)
	smp := &p.mc[k]
	nomK6, nomIt := sc.plane(GeneK6, m), sc.plane(GeneItail, m)
	for j := 0; j < m; j++ {
		dl.Amp.K6[j] = nomK6[j] * (1 + smp.z[5]*sc.sigK6[j])
		dl.Amp.Itail[j] = nomIt[j] * (1 + smp.z[6]*sc.sigIt[j])
	}
	scint.EvaluateLanes(&smp.tech, m, dl, p.sys, &sc.warm, &sc.perf, &sc.eng)
}

// batchScratch is the workspace of one EvaluateBatch call: gene planes
// (column-major, NumGenes × n, at the chunk-padded stride), the TT-corner
// power plane, the per-lane amplifier warm planes, the lane engine with its
// performance planes, and the Monte-Carlo planes of the compacted
// near-feasible lanes (their batch indices, perturbed K6 and Itail, mismatch
// sigmas and pass counts).
type batchScratch struct {
	planes []float64
	stride int
	ucol   []float64
	nomPow []float64
	warm   opamp.WarmLanes
	perf   scint.PerfLanes
	eng    scint.LaneEngine

	mcIdx        []int
	mcK6, mcIt   []float64
	sigK6, sigIt []float64
	passN        []int
}

func (sc *batchScratch) ensure(n int) {
	// Gene planes are laid out at the chunk-padded stride so every column is
	// a padded plane the chunked kernels can consume without tail handling.
	sc.stride = lanes.PadLen(n)
	if cap(sc.planes) < NumGenes*sc.stride {
		sc.planes = make([]float64, NumGenes*sc.stride)
	}
	sc.planes = sc.planes[:NumGenes*sc.stride]
	sc.ucol = lanes.Grow(sc.ucol, n)
	sc.nomPow = lanes.Grow(sc.nomPow, n)
	for i := 0; i < n; i++ {
		sc.nomPow[i] = 0
	}
	sc.mcIdx = lanes.Grow(sc.mcIdx, n)
	sc.mcK6 = lanes.Grow(sc.mcK6, n)
	sc.mcIt = lanes.Grow(sc.mcIt, n)
	sc.sigK6 = lanes.Grow(sc.sigK6, n)
	sc.sigIt = lanes.Grow(sc.sigIt, n)
	sc.passN = lanes.Grow(sc.passN, n)
}

// decode fills the gene planes from the genomes: one transform pass per
// gene column. The raw gene values are gathered into a contiguous column
// first, so the log-scaled genes (most of them) run through the packed
// clamp+exp kernel.
func (sc *batchScratch) decode(xs [][]float64) {
	n := len(xs)
	u := sc.ucol[:n]
	for g := range genes {
		gm := &genes[g]
		col := sc.plane(g, n)
		for i, x := range xs {
			u[i] = x[g]
		}
		if gm.log {
			simd.DecodeLog(col, u, gm.lnRatio, gm.lo)
		} else {
			for i, v := range u {
				col[i] = gm.decode(v)
			}
		}
	}
}

// plane returns the first n lanes of gene g's plane.
func (sc *batchScratch) plane(g, n int) []float64 {
	return sc.planes[g*sc.stride : g*sc.stride+n]
}

// sampleLanes readies the first m lanes of the gene planes for the
// Monte-Carlo sweep: it computes their mismatch sigmas, cold-starts their
// warm planes (threaded sample to sample, as RobustnessWithDesign threads
// one WarmState per design), and returns their design view with K6 and
// Itail read from the per-sample planes evalSample rewrites.
func (sc *batchScratch) sampleLanes(m int) scint.DesignLanes {
	dl := sc.designLanes(m)
	for j := 0; j < m; j++ {
		sc.sigK6[j], sc.sigIt[j] = mismatchSigmas(dl.Amp.W5[j], dl.Amp.L5[j],
			dl.Amp.W6[j], dl.Amp.L6[j], dl.Amp.W7[j], dl.Amp.L7[j])
	}
	sc.warm.Reset(m)
	dl.Amp.K6, dl.Amp.Itail = sc.mcK6[:m], sc.mcIt[:m]
	return dl
}

// designLanes exposes the first n lanes of the gene planes as the lane
// engine's struct-of-arrays design view — slice headers into the plane
// arena, no copying.
func (sc *batchScratch) designLanes(n int) scint.DesignLanes {
	pl := func(g int) []float64 { return sc.plane(g, n) }
	return scint.DesignLanes{
		Amp: opamp.SizingLanes{
			W1: pl(GeneW1), L1: pl(GeneL1),
			W3: pl(GeneW3), L3: pl(GeneL3),
			W5: pl(GeneW5), L5: pl(GeneL5),
			W6: pl(GeneW6), L6: pl(GeneL6),
			W7: pl(GeneW7), L7: pl(GeneL7),
			Itail: pl(GeneItail),
			K6:    pl(GeneK6),
			Cc:    pl(GeneCc),
		},
		Cs: pl(GeneCs),
		CL: pl(GeneCL),
	}
}

// batchPool recycles scratch arenas across calls and workers. It is a plain
// mutex-guarded free list rather than a sync.Pool so warmed arenas are never
// dropped by the garbage collector — the zero-allocation steady state holds
// for the lifetime of the process, not just between collections.
var batchPool struct {
	mu   sync.Mutex
	free []*batchScratch
}

func getBatchScratch(n int) *batchScratch {
	batchPool.mu.Lock()
	var sc *batchScratch
	if k := len(batchPool.free); k > 0 {
		sc = batchPool.free[k-1]
		batchPool.free = batchPool.free[:k-1]
	}
	batchPool.mu.Unlock()
	if sc == nil {
		sc = &batchScratch{}
	}
	sc.ensure(n)
	return sc
}

func putBatchScratch(sc *batchScratch) {
	batchPool.mu.Lock()
	batchPool.free = append(batchPool.free, sc)
	batchPool.mu.Unlock()
}
