// Package sacga implements the paper's primary contribution: the Simulated
// Annealing driven Competition Genetic Algorithm (SACGA) for multi-objective
// design-space exploration, plus the pure local-competition ablation of the
// paper's §4.3. Its Engine is the one phase machine behind both SACGA and
// MESACGA (§4.5, package mesacga), which is SACGA run over a shrinking
// partition schedule.
//
// The objective space is partitioned along one objective axis (package-level
// Grid). Evolution runs in two phases (paper fig. 3):
//
//   - Phase I — pure LOCAL competition: non-dominated ranking only within
//     each partition; a global mating pool is drawn by rank-based selection
//     over the whole population; the phase ends once every partition holds
//     a constraint-satisfying solution, or after GentMax iterations, after
//     which partitions that never produced a feasible solution are
//     discarded (their load range is deemed infeasible).
//
//   - Phase II — annealed MIXED competition over a partition schedule: one
//     phase of Span iterations per schedule entry. Each iteration, every
//     partition's locally-superior (local rank 0) solutions are considered
//     in random order i = 1..mp and join the global competition with the
//     eqn.-(3) probability, which the eqn.-(4) temperature schedule drives
//     from ~0 (pure local) to ~1 (pure global) across the phase.
//     Participants have their rank revised to the global non-domination
//     rank; non-participants keep their local rank — the mechanism that
//     protects weak-but-diverse regions ("a partition maintains its
//     representation even if all its participants are dominated"). At the
//     end of each phase the engine records the phase's global front and,
//     unless the phase was the last, re-grids the axis to the next entry.
//     SACGA's schedule is the one phase at Params.Partitions; NewPhased
//     runs MESACGA's.
//
// Survival is (µ+λ) with per-partition quotas, which realizes the
// protection structurally: each live partition retains up to
// PopSize/#live members ranked by the revised comparison; spare capacity
// is refilled globally. The final Pareto front is one global competition
// over the last population, exactly as the paper reports its results.
package sacga

import (
	"encoding/gob"
	"fmt"
	"math"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/pareto"
	"sacga/internal/rng"
	"sacga/internal/search"
)

func init() {
	search.Register("sacga", func() search.Engine { return new(Engine) })
	search.RegisterExtension("sacga", func() any { return new(Params) })
	gob.Register(&Snapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// deadRankOffset pushes members of discarded partitions behind every live
// individual in the revised-rank ordering.
const deadRankOffset = 1 << 20

// DefaultGentMax caps phase I when Params.GentMax is unset.
const DefaultGentMax = 200

// nSuperior is the desired number of globally superior solutions per
// partition: the n of eqn. (2).
const nSuperior = 5

// pressure is the linear-ranking selection pressure of the global mating
// pool.
const pressure = 1.8

// Params is the SACGA extension struct carried by search.Options.Extra:
// the algorithm-specific knobs, with the common hyperparameters (PopSize,
// Generations, Seed, Workers, Initial) coming from search.Options itself.
// The zero value selects the defaults.
type Params struct {
	// Partitions is m, the number of equal partitions of the objective
	// axis (default 8).
	Partitions int
	// PartitionObjective selects the partitioned (minimized) objective
	// axis; PartitionLo/Hi bound it.
	PartitionObjective       int
	PartitionLo, PartitionHi float64
	// GentMax caps phase I (default 200).
	GentMax int
	// Span, when > 0, pins the length of each phase-II phase exactly,
	// however long phase I ran. When 0, the phases split the remainder of
	// Options.Generations after phase I evenly — max(1,
	// (Generations-gentUsed)/phases) each — which keeps runs
	// evaluation-comparable across algorithms, the way the paper's
	// budget-matched comparisons are set up.
	Span int
	// Shape are the eqn. 2–4 constants; nil selects DefaultShape(5).
	Shape *Shape
	// LocalOnly selects the paper's §4.3 ablation: pure local competition
	// for the whole Options.Generations budget, with no phase boundary and
	// no partition discarding.
	LocalOnly bool
}

// normalize applies the SACGA defaults in place. Span is left as given:
// 0 selects the derived phase length.
func (p *Params) normalize(nobj int) {
	if p.Partitions <= 0 {
		p.Partitions = 8
	}
	if p.PartitionObjective < 0 || p.PartitionObjective >= nobj {
		p.PartitionObjective = nobj - 1
	}
	if p.GentMax <= 0 {
		p.GentMax = DefaultGentMax
	}
	if p.Shape == nil {
		s := DefaultShape(nSuperior)
		p.Shape = &s
	}
}

// Engine is the step-wise SACGA driver implementing search.Engine
// (registered as "sacga"), and the phase machine MESACGA runs through
// NewPhased. The zero value is ready for Init (or Restore).
type Engine struct {
	prob   objective.Problem
	opts   search.Options // normalized
	params Params         // normalized private copy of Options.Extra
	s      *rng.Stream
	grid   Grid
	pop    ga.Population
	dead   []bool
	gen    int // global iteration counter

	// Step-wise driver state (search.Engine). stage walks phase I → II and
	// phase walks the schedule; each transition folds into the Step that
	// crosses it, so one Step is always one iteration.
	budget   search.EvalBudget
	phased   []int // NewPhased's schedule; nil selects [Params.Partitions]
	schedule []int // phase II's partition count per phase
	stage    int   // stagePhaseI or stagePhaseII
	phase    int   // index into schedule
	t        int   // iteration index within the current stage or phase
	span     int   // phase length, fixed at the phase-I exit
	gentUsed int   // iterations phase I consumed
	fronts   []ga.Population

	// Steady-state scratch. The per-generation kernels (partition group-by,
	// local/global non-dominated sorts, rank revision, environmental
	// selection) run entirely inside these buffers, so iterations allocate
	// only for the variation operators' new individuals.
	arena        ga.Arena        // index sorts by crowded comparison
	sel          ga.RankSelector // global mating pool selector
	lsort        pareto.Sorter   // local & participant non-dominated sorts
	lpts         []pareto.Point  // point views for lsort
	counts       []int           // partition group-by: per-partition counts
	starts       []int           // partition group-by: segment offsets (M+1)
	cursor       []int           // partition group-by: fill cursors
	idxbuf       []int           // partition group-by: grouped indices
	rank0        []int           // reviseRanks: locally-superior candidates
	participants []int           // reviseRanks: global-competition entrants
	taken        []bool          // environmentalSelect: membership flags
	rest         []int           // environmentalSelect: global refill pool
	popBuf       ga.Population   // environmentalSelect: double buffer
	unionBuf     ga.Population   // iterate: (µ+λ) union
	childBuf     ga.Population   // iterate: offspring
}

const (
	stagePhaseI = iota
	stagePhaseII
)

// NewPhased returns an engine whose phase II walks schedule, one phase per
// entry, in place of the single phase at Params.Partitions: the MESACGA
// machine. The caller validates schedule and must not modify it.
func NewPhased(schedule []int) *Engine { return &Engine{phased: schedule} }

// Name implements search.Engine.
func (e *Engine) Name() string { return "sacga" }

// prepare applies the option/problem wiring shared by Init and Restore. The
// extension struct is copied before it is normalized: schedulers hand one
// Params pointer to every replica, so it must stay read-only here.
func (e *Engine) prepare(prob objective.Problem, opts search.Options) error {
	p, err := search.Extension[Params](opts)
	if err != nil {
		return fmt.Errorf("sacga: %w", err)
	}
	opts.Normalize()
	e.opts, e.params = opts, *p
	e.params.normalize(prob.NumObjectives())
	e.schedule = e.phased
	if e.schedule == nil {
		e.schedule = []int{e.params.Partitions}
	}
	e.prob = e.budget.Attach(prob, opts.MaxEvals)
	return nil
}

// Init implements search.Engine: it builds the partition grid, then seeds,
// evaluates and locally ranks the initial population. Options.Extra may
// carry a *Params; nil selects the defaults (8 partitions over
// [PartitionLo,PartitionHi] = [0,0] is almost never what a caller wants,
// so Extra is nil only in tests). An evaluation fault quarantines the
// failed individuals and is returned after the engine is fully
// initialized.
func (e *Engine) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	o, p := &e.opts, &e.params
	e.s = rng.Derive(o.Seed, "sacga")
	e.stage, e.phase, e.t, e.span, e.gentUsed, e.gen = stagePhaseI, 0, 0, 0, 0, 0
	e.fronts = nil
	e.grid = NewGrid(p.PartitionObjective, p.PartitionLo, p.PartitionHi, e.schedule[0])
	e.dead = make([]bool, e.grid.M)
	lo, hi := prob.Bounds()
	e.pop = ga.InitialPopulation(e.s, o.Initial, o.PopSize, lo, hi)
	evalErr := e.pop.TryEvaluateWith(e.prob, nil, o.Workers)
	e.assign(e.pop)
	e.localRanks(e.pop)
	if evalErr != nil {
		return fmt.Errorf("sacga: %w", evalErr)
	}
	return nil
}

// Step implements search.Engine: one iteration. In phase I it first checks
// the phase-exit condition (full feasibility coverage or the phase-I cap)
// and, when met, performs the transition — markDead and the span
// derivation — before running the first phase-II iteration. The Step that
// completes a phase records the phase's front and, unless the phase was
// the last, re-grids to the next schedule entry. One Step is always one
// iteration.
func (e *Engine) Step() error {
	if e.Done() {
		return nil
	}
	if e.params.LocalOnly {
		err := e.iterate(e.t, e.opts.Generations, true)
		e.t++
		return err
	}
	if e.stage == stagePhaseI {
		if e.t < e.phaseICap() && !e.allPartitionsFeasible() {
			err := e.iterate(e.t, e.params.GentMax, true)
			e.t++
			return err
		}
		e.gentUsed = e.t
		e.markDead()
		e.stage = stagePhaseII
		e.t = 0
		e.span = e.params.Span
		if e.span <= 0 {
			e.span = max(1, (e.opts.Generations-e.gentUsed)/len(e.schedule))
		}
	}
	err := e.iterate(e.t, e.span, false)
	e.t++
	if e.t >= e.span {
		e.fronts = append(e.fronts, e.Front().Clone())
		if e.phase < len(e.schedule)-1 {
			// Expand the partitions. Some locally-superior but globally
			// inferior solutions lose their protection here — the paper's
			// intended pruning.
			e.phase++
			e.t = 0
			e.regrid(e.schedule[e.phase])
		}
	}
	return err
}

// phaseICap bounds phase I: GentMax, additionally clipped to the total
// generation budget when the span is derived — a never-feasible problem
// must not let phase I run GentMax generations past a smaller
// Options.Generations. With a pinned span GentMax alone bounds phase I,
// and every phase runs its span in full regardless.
func (e *Engine) phaseICap() int {
	if e.params.Span <= 0 {
		return min(e.params.GentMax, e.opts.Generations)
	}
	return e.params.GentMax
}

// Done implements search.Engine. A run ends in the last phase of its
// schedule at t == span. Checkpoints written before SACGA and MESACGA
// shared this machine may also record a MESACGA end one phase past the
// schedule, at t == 0.
func (e *Engine) Done() bool {
	if e.budget.Exhausted() {
		return true
	}
	if e.params.LocalOnly {
		return e.t >= e.opts.Generations
	}
	last := len(e.schedule) - 1
	return e.stage == stagePhaseII && (e.phase > last || e.phase == last && e.t >= e.span)
}

// Generation implements search.Engine.
func (e *Engine) Generation() int { return e.gen }

// Evals implements search.Engine.
func (e *Engine) Evals() int64 { return e.budget.Evals() }

// GentUsed returns the number of iterations phase I consumed (valid once
// the step-wise run has crossed the phase boundary).
func (e *Engine) GentUsed() int { return e.gentUsed }

// PhaseFronts returns the global fronts recorded at the end of each
// completed phase-II phase (deep copies).
func (e *Engine) PhaseFronts() []ga.Population { return e.fronts }

// Snapshot is the engine-specific checkpoint payload: the RNG position,
// the population with its revised ranks, the partition liveness flags, the
// step-machine position and the recorded phase fronts. Partitions records
// the CURRENT grid size, which differs from the first schedule entry once
// a MESACGA run has re-gridded. The populations are packed; Pop and
// PhaseFronts carry them in checkpoints written before the packed form,
// and are read only.
type Snapshot struct {
	RNG          rng.State
	PackedPop    ga.Packed
	Dead         []bool
	Partitions   int
	Gen          int
	Stage        int
	T            int
	Span         int
	GentUsed     int
	Phase        int
	PackedFronts []ga.Packed
	Pop          ga.Population
	PhaseFronts  []ga.Population
}

// Checkpoint implements search.Engine.
func (e *Engine) Checkpoint() *search.Checkpoint {
	return &search.Checkpoint{Algo: e.Name(), Gen: e.gen, Evals: e.Evals(), State: &Snapshot{
		RNG:          e.s.State(),
		PackedPop:    ga.PackPopulation(e.pop),
		Dead:         append([]bool(nil), e.dead...),
		Partitions:   e.grid.M,
		Gen:          e.gen,
		Stage:        e.stage,
		T:            e.t,
		Span:         e.span,
		GentUsed:     e.gentUsed,
		Phase:        e.phase,
		PackedFronts: ga.PackPopulations(e.fronts),
	}}
}

// Restore implements search.Engine.
func (e *Engine) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	sn, err := search.StateOf[Snapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("sacga: %w", err)
	}
	pop, err := ga.RestorePopulation(sn.PackedPop, sn.Pop)
	if err != nil {
		return fmt.Errorf("sacga: %w", err)
	}
	fronts, err := ga.RestorePopulations(sn.PackedFronts, sn.PhaseFronts)
	if err != nil {
		return fmt.Errorf("sacga: phase fronts: %w", err)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	e.budget.RestoreEvals(cp.Evals)
	p := &e.params
	e.s = rng.FromState(sn.RNG)
	e.pop = pop
	e.dead = append([]bool(nil), sn.Dead...)
	e.grid = NewGrid(p.PartitionObjective, p.PartitionLo, p.PartitionHi, sn.Partitions)
	e.gen = sn.Gen
	e.stage, e.phase, e.t, e.span, e.gentUsed = sn.Stage, sn.Phase, sn.T, sn.Span, sn.GentUsed
	e.fronts = fronts
	return nil
}

// Emigrants implements search.Migrator: deep copies of the engine's k best
// individuals under the current (revised) crowded-comparison ordering.
func (e *Engine) Emigrants(k int) ga.Population {
	return ga.TruncateByCrowdedComparison(e.pop, k).Clone()
}

// Immigrate implements search.Migrator through ga.Arena.Immigrate; the
// newcomers are assigned to this engine's partition grid and the local
// competition ranks are refreshed — so they join whichever partition their
// objectives land in, exactly like offspring.
func (e *Engine) Immigrate(migrants ga.Population) {
	if pop, ok := e.arena.Immigrate(e.pop, migrants); ok {
		e.pop = pop
		e.assign(e.pop)
		e.localRanks(e.pop)
	}
}

// Population returns the current population — a live view, not a copy.
// The engine recycles population buffers across iterations, so the view is
// invalidated by the next Step; Clone it to keep a snapshot.
func (e *Engine) Population() ga.Population { return e.pop }

// Grid returns the active partition grid.
func (e *Engine) Grid() Grid { return e.grid }

// Front extracts the globally non-dominated subset of the current
// population — the paper's "Global Competition performed once on the entire
// population".
func (e *Engine) Front() ga.Population { return e.pop.FirstFront() }

// markDead discards partitions without a constraint-satisfying solution —
// the paper's post-phase-I cleanup ("partitions with no
// constraint-satisfying solutions are discarded").
func (e *Engine) markDead() {
	feas := e.feasibleByPartition()
	for k := range e.dead {
		e.dead[k] = !feas[k]
	}
	e.infeasibleFallbackCheck()
	e.localRanks(e.pop) // refresh dead-rank offsets
}

// regrid re-partitions the objective axis into m partitions (a MESACGA
// phase transition), reassigns every individual and refreshes liveness:
// a partition is live if any population member inside it is feasible OR the
// whole population is still infeasible (no information yet).
func (e *Engine) regrid(m int) {
	p := &e.params
	e.grid = NewGrid(p.PartitionObjective, p.PartitionLo, p.PartitionHi, m)
	e.dead = make([]bool, m)
	e.assign(e.pop)
	if e.pop.FeasibleCount() > 0 {
		feas := e.feasibleByPartition()
		occupied := make([]bool, m)
		for _, ind := range e.pop {
			occupied[ind.Partition] = true
		}
		for k := range e.dead {
			e.dead[k] = occupied[k] && !feas[k]
		}
		e.infeasibleFallbackCheck()
	}
	e.localRanks(e.pop)
}

// assign writes partition indices from current objective values.
func (e *Engine) assign(pop ga.Population) {
	for _, ind := range pop {
		ind.Partition = e.grid.Index(ind.Objectives)
	}
}

func (e *Engine) feasibleByPartition() []bool {
	feas := make([]bool, e.grid.M)
	for _, ind := range e.pop {
		if ind.Feasible() {
			feas[ind.Partition] = true
		}
	}
	return feas
}

func (e *Engine) allPartitionsFeasible() bool {
	feas := e.feasibleByPartition()
	for _, ok := range feas {
		if !ok {
			return false
		}
	}
	return true
}

// groupByPartition buckets pop's indices by partition into the engine's
// scratch (a counting sort, so indices stay in ascending order within each
// partition). Segment k is idxbuf[starts[k]:starts[k+1]]. Grid.Index is
// total over [0, M), so every individual lands in exactly one bucket.
func (e *Engine) groupByPartition(pop ga.Population) {
	m := e.grid.M
	if cap(e.counts) < m {
		e.counts = make([]int, m)
		e.starts = make([]int, m+1)
		e.cursor = make([]int, m)
	}
	e.counts = e.counts[:m]
	e.starts = e.starts[:m+1]
	e.cursor = e.cursor[:m]
	for k := range e.counts {
		e.counts[k] = 0
	}
	for _, ind := range pop {
		e.counts[ind.Partition]++
	}
	e.starts[0] = 0
	for k := 0; k < m; k++ {
		e.starts[k+1] = e.starts[k] + e.counts[k]
		e.cursor[k] = e.starts[k]
	}
	if cap(e.idxbuf) < len(pop) {
		e.idxbuf = make([]int, len(pop))
	}
	e.idxbuf = e.idxbuf[:len(pop)]
	for i, ind := range pop {
		e.idxbuf[e.cursor[ind.Partition]] = i
		e.cursor[ind.Partition]++
	}
}

// partPoints refreshes the engine's point-view buffer over pop[idx].
func (e *Engine) partPoints(pop ga.Population, idx []int) []pareto.Point {
	if cap(e.lpts) < len(idx) {
		e.lpts = make([]pareto.Point, len(idx))
	}
	e.lpts = e.lpts[:len(idx)]
	for j, i := range idx {
		e.lpts[j] = pop[i].Point()
	}
	return e.lpts
}

// localRanks performs the LOCAL competition: a constrained non-dominated
// sort within every partition, writing Rank and Crowding on each
// individual. Members of dead partitions are additionally pushed behind
// everything live.
func (e *Engine) localRanks(pop ga.Population) {
	e.groupByPartition(pop)
	for part := 0; part < e.grid.M; part++ {
		idx := e.idxbuf[e.starts[part]:e.starts[part+1]]
		if len(idx) == 0 {
			continue
		}
		pts := e.partPoints(pop, idx)
		for r, front := range e.lsort.Sort(pts) {
			crowd := e.lsort.Crowding(pts, front)
			for j, fi := range front {
				ind := pop[idx[fi]]
				ind.Rank = r
				ind.Crowding = crowd[j]
				if e.dead[part] {
					ind.Rank += deadRankOffset
				}
			}
		}
	}
}

// iterate performs one SACGA iteration: variation from the current ranked
// population, then rank revision (local sort, probabilistic global
// participation unless pureLocal) and quota-based environmental selection
// on the (µ+λ) union. t/span position the annealing schedule. An
// evaluation fault quarantines the failed offspring; the iteration —
// revision and selection — still completes before the error is
// returned, so the engine is valid at every return.
func (e *Engine) iterate(t, span int, pureLocal bool) error {
	lo, hi := e.prob.Bounds()
	o := &e.opts

	// Global mating pool: rank-based selection over the entire population
	// using the current (revised) ranks; global crossover and mutation into
	// arena-recycled offspring buffers (the individuals the previous
	// environmental selection discarded).
	e.sel.Reset(e.pop, pressure)
	children := e.childBuf[:0]
	for len(children) < o.PopSize {
		p1 := e.sel.Pick(e.s)
		p2 := e.sel.Pick(e.s)
		c1, c2 := e.arena.Offspring(), e.arena.Offspring()
		ga.CrossoverInto(e.s, p1, p2, c1, c2, lo, hi)
		ga.Mutate(e.s, c1, lo, hi)
		ga.Mutate(e.s, c2, lo, hi)
		children = append(children, c1)
		if len(children) < o.PopSize {
			children = append(children, c2)
		} else {
			e.arena.Recycle(c2) // odd PopSize: return the dangling buffer
		}
	}
	e.childBuf = children
	evalErr := children.TryEvaluateWith(e.prob, nil, o.Workers)

	union := append(append(e.unionBuf[:0], e.pop...), children...)
	e.unionBuf = union
	e.assign(union)
	e.localRanks(union)

	if !pureLocal {
		e.reviseRanks(union, t, span)
	}

	e.pop = e.environmentalSelect(union)
	e.gen++
	if evalErr != nil {
		return fmt.Errorf("sacga: %w", evalErr)
	}
	return nil
}

// reviseRanks implements the probabilistic global competition: each live
// partition's locally-superior solutions are visited in a random order
// i = 1..mp and join with probability eqn. (3); participants' ranks (and
// crowding) are replaced by their global values.
func (e *Engine) reviseRanks(union ga.Population, t, span int) {
	p := &e.params
	// The group-by computed by localRanks(union) is still valid: partitions
	// have not changed since. Visit partitions in index order (a map here
	// would leak nondeterminism into the shuffle stream); within a
	// partition, candidates are in ascending union order, exactly as the
	// rank-0 filter over a linear scan would produce.
	participants := e.participants[:0]
	for k := 0; k < e.grid.M; k++ {
		idx := e.rank0[:0]
		for _, i := range e.idxbuf[e.starts[k]:e.starts[k+1]] {
			if union[i].Rank == 0 { // locally superior, live partitions only
				idx = append(idx, i)
			}
		}
		e.rank0 = idx
		if len(idx) == 0 {
			continue
		}
		e.s.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for j, i := range idx {
			if e.s.Bool(p.Shape.Probability(j+1, nSuperior, t, span)) {
				participants = append(participants, i)
			}
		}
	}
	e.participants = participants
	if len(participants) == 0 {
		return
	}
	pts := e.partPoints(union, participants)
	for r, front := range e.lsort.Sort(pts) {
		crowd := e.lsort.Crowding(pts, front)
		for j, fi := range front {
			ind := union[participants[fi]]
			ind.Rank = r
			ind.Crowding = crowd[j]
		}
	}
}

// environmentalSelect keeps PopSize individuals from the union: each live
// partition retains up to its quota in revised-rank order, then spare
// capacity is refilled from the remaining individuals globally.
func (e *Engine) environmentalSelect(union ga.Population) ga.Population {
	popSize := e.opts.PopSize
	live := 0
	for k := 0; k < e.grid.M; k++ {
		if !e.dead[k] {
			live++
		}
	}
	if live == 0 {
		live = 1
	}
	quota := popSize / live
	extra := popSize % live

	// The group-by from localRanks(union) is still valid; segments are
	// sorted in place, which is fine because the grouping is rebuilt on the
	// next iteration.
	if cap(e.taken) < len(union) {
		e.taken = make([]bool, len(union))
	}
	taken := e.taken[:len(union)]
	for i := range taken {
		taken[i] = false
	}
	out := e.popBuf[:0]
	liveSeen := 0
	for k := 0; k < e.grid.M; k++ {
		idx := e.idxbuf[e.starts[k]:e.starts[k+1]]
		if len(idx) == 0 {
			continue
		}
		if e.dead[k] {
			continue // no quota protection for discarded partitions
		}
		q := quota
		if liveSeen < extra {
			q++
		}
		liveSeen++
		e.arena.SortIndicesByCrowdedComparison(union, idx)
		for _, i := range idx[:min(q, len(idx))] {
			out = append(out, union[i])
			taken[i] = true
		}
	}
	if len(out) < popSize {
		rest := e.rest[:0]
		for i := range union {
			if !taken[i] {
				rest = append(rest, i)
			}
		}
		e.rest = rest
		e.arena.SortIndicesByCrowdedComparison(union, rest)
		for _, i := range rest {
			if len(out) == popSize {
				break
			}
			out = append(out, union[i])
			taken[i] = true
		}
	}
	if len(out) > popSize {
		out = out[:popSize]
	}
	// Union members that survived neither the quota pass nor the global
	// refill are dead: recycle their buffers as the next iteration's
	// offspring. (Observers must not retain populations for this reason.)
	for i, ind := range union {
		if !taken[i] {
			e.arena.Recycle(ind)
		}
	}
	// Double-buffer the parent population: the outgoing generation's array
	// becomes the next selection's output buffer. Its individuals survive
	// through union/out references, so recycling the slice is safe.
	e.popBuf = e.pop[:0]
	return out
}

// infeasibleFallbackCheck guards against a pathological all-dead grid: if
// every partition died in phase I the engine would otherwise starve. The
// engine never lets that happen — markDead keeps at least the best
// partition alive.
func (e *Engine) infeasibleFallbackCheck() {
	allDead := true
	for _, d := range e.dead {
		if !d {
			allDead = false
			break
		}
	}
	if !allDead {
		return
	}
	// Revive the partition holding the lowest-violation individual.
	best := 0
	bestVio := math.Inf(1)
	for _, ind := range e.pop {
		if ind.Violation < bestVio {
			bestVio = ind.Violation
			best = ind.Partition
		}
	}
	if best >= 0 && best < len(e.dead) {
		e.dead[best] = false
	}
}
