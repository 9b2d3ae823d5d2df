package sched

import (
	"encoding/gob"
	"fmt"
	"time"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/search"
)

func init() {
	search.Register(NameParallelIslands, func() search.Engine { return new(ParallelIslands) })
	search.RegisterExtension(NameParallelIslands, func() any { return new(IslandsParams) })
	gob.Register(&IslandsSnapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// Topology selects the migration pattern between engine replicas.
type Topology string

const (
	// Ring sends each replica's emigrants to the next replica (k → k+1
	// mod N) — the classic island-model ring, matching the intra-engine
	// ring the islands package implements one level down.
	Ring Topology = "ring"
	// Star exchanges through replica 0 as the hub: every leaf's emigrants
	// flow to the hub, and the hub's elite is broadcast to every leaf.
	Star Topology = "star"
)

// IslandsParams is the ParallelIslands extension struct carried by
// search.Options.Extra. The zero value selects the defaults: 4 NSGA-II
// replicas on a ring, migrating 2 individuals every 10 epochs.
type IslandsParams struct {
	// Replicas is the number of engine replicas (default 4). Each replica
	// receives PopSize/Replicas individuals of the total population and a
	// seed derived from its index.
	Replicas int
	// Algo is the registry name of the replicated engine (default
	// "nsga2"). SACGA replicas partition the objective axis per replica —
	// the paper's partitions one level up.
	Algo string
	// Extra is the extension struct handed to every replica (e.g. a
	// *sacga.Params); nil selects that algorithm's defaults.
	Extra any
	// MigrationEvery is the number of epochs between migration exchanges;
	// 0 selects the default (10), negative disables migration (fully
	// isolated replicas — no Migrator requirement on the engine).
	MigrationEvery int
	// Migrants is how many individuals each replica emits per exchange
	// (default 2).
	Migrants int
	// Topology is the exchange pattern (default Ring).
	Topology Topology
	// StepWorkers bounds how many replicas step concurrently within an
	// epoch: 0 selects GOMAXPROCS, 1 forces sequential round-robin
	// stepping. Results are bit-identical at every setting.
	StepWorkers int
	// StepRetries is how many extra attempts a failing replica Step gets
	// before the replica is dropped at the epoch barrier (default 2).
	// Negative disables the fault-tolerance layer entirely: the first
	// replica error aborts the epoch, the pre-fault-tolerant behavior.
	StepRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 retries immediately. Sleeping never affects determinism —
	// fault schedules are content-keyed, not time-keyed.
	RetryBackoff time.Duration
	// StepTimeout arms a per-replica watchdog around every Step attempt
	// (see search.GuardedStep); 0 leaves replica steps unguarded.
	StepTimeout time.Duration
}

func (p *IslandsParams) normalize() {
	if p.Replicas <= 0 {
		p.Replicas = 4
	}
	if p.StepRetries == 0 {
		p.StepRetries = 2
	}
	if p.Algo == "" {
		p.Algo = "nsga2"
	}
	if p.MigrationEvery == 0 {
		p.MigrationEvery = 10
	}
	if p.Migrants <= 0 {
		p.Migrants = 2
	}
	if p.Topology == "" {
		p.Topology = Ring
	}
}

// ParallelIslands steps N replicas of one engine concurrently — one
// scheduler epoch advances every live replica one generation — and applies
// deterministic ring/star migration at fixed epochs. The final Step pools
// the replicas and ranks the pooled population, so Population() after Done
// is the one global non-dominated competition the paper performs at the
// end of every run.
//
// It implements search.Engine (registered as "parallel-islands") and is
// bit-identical to sequential round-robin stepping at any StepWorkers and
// GOMAXPROCS setting.
type ParallelIslands struct {
	prob    objective.Problem
	opts    search.Options
	p       IslandsParams
	budget  search.EvalBudget
	engines []search.Engine
	probs   []objective.Problem // per-replica counters over prob (own accounting)
	epoch   int
	pooled  ga.Population
	final   bool
	reps    ReplicaSet
	fails   []replicaFailure // per-epoch scratch, index-addressed
	livebuf []int            // scratch for liveIndices
}

// IslandsSnapshot is the composite checkpoint payload: every replica's own
// checkpoint, in replica order. Dead/Poisoned record the fault-tolerance
// state (nil in pre-fault-tolerance snapshots means all replicas alive);
// Inner holds an empty placeholder for poisoned replicas, whose state was
// unrecoverable.
type IslandsSnapshot struct {
	Inner    []*search.Checkpoint
	Dead     []bool
	Poisoned []bool
}

// Name implements search.Engine.
func (e *ParallelIslands) Name() string { return NameParallelIslands }

// prepare applies the option/problem wiring shared by Init and Restore and
// constructs the (uninitialized) replica engines.
func (e *ParallelIslands) prepare(prob objective.Problem, opts search.Options) error {
	p, err := search.Extension[IslandsParams](opts)
	if err != nil {
		return fmt.Errorf("sched: parallel-islands: %w", err)
	}
	opts.Normalize()
	e.p = *p
	e.p.normalize()
	e.opts = opts
	e.prob = e.budget.Attach(prob, opts.MaxEvals)
	e.epoch = 0
	e.final = false
	e.engines = make([]search.Engine, e.p.Replicas)
	e.probs = make([]objective.Problem, e.p.Replicas)
	for i := range e.engines {
		eng, err := search.New(e.p.Algo)
		if err != nil {
			return fmt.Errorf("sched: parallel-islands: %w", err)
		}
		if e.p.MigrationEvery > 0 {
			if _, ok := eng.(search.Migrator); !ok {
				return fmt.Errorf("sched: parallel-islands: engine %q does not support migration (search.Migrator); set MigrationEvery < 0 to run isolated replicas", e.p.Algo)
			}
		}
		e.engines[i] = eng
		e.probs[i] = childProblem(e.prob)
	}
	e.pooled = make(ga.Population, 0, e.opts.PopSize)
	e.reps.Reset(e.p.Replicas)
	e.fails = make([]replicaFailure, e.p.Replicas)
	return nil
}

// ReplicaShares splits popSize across n replicas so the shares sum EXACTLY
// to popSize — the ensemble must stay budget-matched with a single engine
// at the same population. Shares are dealt in pairs (largest first) so at
// most one share is odd: engines that round odd populations up (nsga2)
// then inflate the total by at most 1, the same guarantee a single such
// engine gives. Tiny populations floor at 2 per replica. Exported so the
// cross-process shard coordinator splits populations identically to the
// in-process scheduler — the determinism contract between the two rests
// on byte-equal replica configurations.
func ReplicaShares(popSize, n int) []int {
	shares := make([]int, n)
	pairs := popSize / 2
	for i := range shares {
		shares[i] = (pairs / n) * 2
	}
	for i := 0; i < pairs%n; i++ {
		shares[i] += 2
	}
	if popSize%2 == 1 {
		shares[n-1]++
	}
	for i := range shares {
		if shares[i] < 2 {
			shares[i] = 2
		}
	}
	return shares
}

// ReplicaLabel is the rng.ChildSeed label every replica ensemble derives
// its per-replica identities from. Shared by ParallelIslands and the
// cross-process shard coordinator: a replica's seed must not depend on
// which runtime steps it.
const ReplicaLabel = "sched/replica"

// ReplicaOptions builds replica i's options for an n-replica ensemble over
// opts: its share of the total population, the matching block of
// Options.Initial, a per-replica derived seed, and the shared knobs.
// Exported for the shard coordinator, which must configure worker-side
// replicas byte-identically to the in-process scheduler.
func ReplicaOptions(opts search.Options, n, i int, extra any) search.Options {
	shares := ReplicaShares(opts.PopSize, n)
	lo := 0
	for k := 0; k < i; k++ {
		lo += shares[k]
	}
	var initial ga.Population
	if lo < len(opts.Initial) {
		hi := min(lo+shares[i], len(opts.Initial))
		initial = opts.Initial[lo:hi]
	}
	return childOptions(opts, shares[i], opts.Generations, ReplicaLabel, i, extra, initial)
}

// replicaOptions builds replica i's options.
func (e *ParallelIslands) replicaOptions(i int) search.Options {
	return ReplicaOptions(e.opts, e.p.Replicas, i, e.p.Extra)
}

// Init implements search.Engine: every replica is seeded and evaluated,
// concurrently when StepWorkers allows (replica initialization is
// independent work, exactly like a step).
func (e *ParallelIslands) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	return runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		return e.engines[i].Init(e.probs[i], e.replicaOptions(i))
	})
}

// Step implements search.Engine: one epoch — every live replica advances
// one generation concurrently, then migration runs at the epoch barrier
// when due, in replica-index order.
//
// Replica faults degrade the ensemble instead of aborting it (unless
// StepRetries is negative): a replica whose Step keeps failing after the
// retry budget is dropped at the epoch barrier, in replica-index order, and
// the remaining replicas finish the run bit-identically to a run configured
// without the dropped replica's steps. The accumulated *ReplicaError is
// returned by the finalizing Step, alongside the valid pooled Result — or
// immediately, when no replica survives.
func (e *ParallelIslands) Step() error {
	if e.Done() {
		return nil
	}
	if e.p.StepRetries < 0 {
		err := runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
			if e.engines[i].Done() {
				return nil
			}
			return e.engines[i].Step()
		})
		if err != nil {
			return fmt.Errorf("sched: parallel-islands: %w", err)
		}
	} else {
		for i := range e.fails {
			e.fails[i] = replicaFailure{}
		}
		runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
			if e.reps.dead[i] || e.engines[i].Done() {
				return nil
			}
			err, poisoned := StepWithRetry(e.engines[i], e.probs[i], e.p.StepRetries, e.p.RetryBackoff, e.p.StepTimeout)
			e.fails[i] = replicaFailure{err: err, poisoned: poisoned}
			return nil
		})
		for i, f := range e.fails { // epoch barrier: drops in replica-index order
			if f.err != nil {
				e.reps.Drop(i, f.err, f.poisoned)
			}
		}
		if e.reps.AllDead() {
			e.finalize()
			return e.reps.TakeErr(e.Name())
		}
	}
	e.epoch++
	if e.p.MigrationEvery > 0 && e.epoch%e.p.MigrationEvery == 0 && !e.done() {
		e.migrate()
	}
	if e.done() {
		e.finalize()
		return e.reps.TakeErr(e.Name())
	}
	return nil
}

// liveIndices returns the indices of replicas still being stepped, in
// ascending order.
func (e *ParallelIslands) liveIndices() []int {
	e.livebuf = e.livebuf[:0]
	for i := range e.engines {
		if !e.reps.dead[i] {
			e.livebuf = append(e.livebuf, i)
		}
	}
	return e.livebuf
}

// Migrate performs one deterministic exchange over engines[live[k]]: all
// emigrants are selected (as clones) before any immigration, so the
// exchange is simultaneous and order-independent; destinations are then
// served in replica-index order. Dropped replicas fall out of the ring (or
// star) — the topology contracts over the survivors, in index order, so the
// exchange stays deterministic at any worker count. Every listed engine
// must implement search.Migrator. Exported so the shard coordinator applies
// the identical exchange to its restored replica mirrors.
func Migrate(engines []search.Engine, live []int, topology Topology, migrants int) {
	n := len(live)
	if n < 2 {
		return
	}
	if topology == Star {
		hub := engines[live[0]].(search.Migrator)
		broadcast := hub.Emigrants(migrants)
		var inbound ga.Population
		for k := 1; k < n; k++ {
			inbound = append(inbound, engines[live[k]].(search.Migrator).Emigrants(migrants)...)
		}
		hub.Immigrate(inbound)
		for k := 1; k < n; k++ {
			// Each leaf takes its own clones of the hub's elite; a shared
			// individual across engines would alias mutable state.
			engines[live[k]].(search.Migrator).Immigrate(broadcast.Clone())
		}
		return
	}
	outbound := make([]ga.Population, n)
	for k := 0; k < n; k++ {
		outbound[k] = engines[live[k]].(search.Migrator).Emigrants(migrants)
	}
	for k := 0; k < n; k++ {
		engines[live[(k+1)%n]].(search.Migrator).Immigrate(outbound[k])
	}
}

// migrate runs one exchange over this scheduler's live replicas.
func (e *ParallelIslands) migrate() {
	Migrate(e.engines, e.liveIndices(), e.p.Topology, e.p.Migrants)
}

// done is Done without the finalized fast path: the budget is exhausted or
// every replica still alive has completed (all-dead finalizes in Step).
func (e *ParallelIslands) done() bool {
	if e.budget.Exhausted() {
		return true
	}
	for i, eng := range e.engines {
		if e.reps.dead[i] {
			continue
		}
		if !eng.Done() {
			return false
		}
	}
	return true
}

// Done implements search.Engine.
func (e *ParallelIslands) Done() bool { return e.final || e.done() }

// Generation implements search.Engine: the number of epochs executed (one
// epoch = one generation per replica).
func (e *ParallelIslands) Generation() int { return e.epoch }

// Evals implements search.Engine: evaluations consumed across every
// replica, counted once by the scheduler's shared budget.
func (e *ParallelIslands) Evals() int64 { return e.budget.Evals() }

// Population implements search.Engine: the pooled view across replicas,
// globally ranked once the run is done. Invalidated by Step.
func (e *ParallelIslands) Population() ga.Population {
	if e.final {
		return e.pooled
	}
	return e.poolView()
}

func (e *ParallelIslands) poolView() ga.Population {
	e.pooled = PoolPopulations(e.pooled, e.engines, e.reps.poisoned)
	return e.pooled
}

// finalize pools the replicas and assigns global ranks — the one pooled
// global competition, run once when the ensemble completes.
func (e *ParallelIslands) finalize() {
	e.poolView().AssignRanksAndCrowding()
	e.final = true
}

// Checkpoint implements search.Engine: a composite snapshot of every
// usable replica's checkpoint, plus the liveness state. Poisoned replicas
// snapshot as empty placeholders — their state belongs to a runaway step.
func (e *ParallelIslands) Checkpoint() *search.Checkpoint {
	sn := &IslandsSnapshot{
		Inner:    make([]*search.Checkpoint, len(e.engines)),
		Dead:     append([]bool(nil), e.reps.dead...),
		Poisoned: append([]bool(nil), e.reps.poisoned...),
	}
	for i, eng := range e.engines {
		if e.reps.poisoned[i] {
			sn.Inner[i] = poisonedPlaceholder()
			continue
		}
		sn.Inner[i] = eng.Checkpoint()
	}
	return &search.Checkpoint{Algo: e.Name(), Gen: e.epoch, Evals: e.Evals(), State: sn}
}

// Restore implements search.Engine.
func (e *ParallelIslands) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if cp.Algo != e.Name() {
		return fmt.Errorf("sched: parallel-islands: checkpoint is for %q", cp.Algo)
	}
	sn, ok := cp.State.(*IslandsSnapshot)
	if !ok {
		return fmt.Errorf("sched: parallel-islands: checkpoint state is %T, want *sched.IslandsSnapshot", cp.State)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	if len(sn.Inner) != len(e.engines) {
		return fmt.Errorf("sched: parallel-islands: checkpoint has %d replicas, options configure %d", len(sn.Inner), len(e.engines))
	}
	e.budget.RestoreEvals(cp.Evals)
	e.epoch = cp.Gen
	e.reps.RestoreState(len(e.engines), sn.Dead, sn.Poisoned)
	if err := runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		if e.reps.poisoned[i] {
			return nil // unrecoverable: stays dropped, contributes nothing
		}
		return e.engines[i].Restore(e.probs[i], e.replicaOptions(i), sn.Inner[i])
	}); err != nil {
		return fmt.Errorf("sched: parallel-islands: %w", err)
	}
	if e.done() {
		e.finalize()
	}
	return nil
}
