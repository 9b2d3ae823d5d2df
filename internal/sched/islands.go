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
	// before the replica is dropped at the epoch barrier (default 2,
	// negative = none).
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
// GOMAXPROCS setting. The cross-process shard coordinator runs this same
// loop over remote replicas (see Ensemble).
type ParallelIslands struct {
	name    string                                         // Ensemble's engine name; "" = parallel-islands
	ext     *IslandsParams                                 // Ensemble's params; nil reads Options.Extra
	wrap    func(i int, local search.Engine) search.Engine // Ensemble's replica wrapper
	opts    search.Options
	p       IslandsParams
	engines []search.Engine
	probs   []objective.Problem // per-replica counters over prob (own accounting)
	counts  []int64             // each replica's Evals(), read at the last barrier
	evals   int64               // the sum of counts: the ensemble's budget
	epoch   int
	pooled  ga.Population
	final   bool
	reps    replicaSet
	fails   []replicaFailure // per-epoch scratch, index-addressed
	livebuf []int            // scratch for liveIndices
}

// IslandsSnapshot is the composite checkpoint payload: every replica's own
// checkpoint, in replica order. Dead/Poisoned record the fault-tolerance
// state (nil in pre-fault-tolerance snapshots means all replicas alive);
// Inner holds an empty placeholder for poisoned replicas, whose state was
// unrecoverable, carrying only the replica's last evaluation count.
type IslandsSnapshot struct {
	Inner    []*search.Checkpoint
	Dead     []bool
	Poisoned []bool
}

// Name implements search.Engine.
func (e *ParallelIslands) Name() string {
	if e.name != "" {
		return e.name
	}
	return NameParallelIslands
}

// Ensemble runs this loop as the engine called name, for an engine built
// on it: Init and Restore take their parameters from p instead of
// Options.Extra, and each replica engine is passed through wrap once the
// migration check has accepted it, before it is initialized or restored.
// The cross-process shard coordinator wraps every replica in one whose
// generations run in a worker process.
func (e *ParallelIslands) Ensemble(name string, p IslandsParams, wrap func(i int, local search.Engine) search.Engine) {
	e.name, e.ext, e.wrap = name, &p, wrap
}

// errorf prefixes an error with the package and this engine's name.
func (e *ParallelIslands) errorf(format string, args ...any) error {
	return fmt.Errorf("sched: "+e.Name()+": "+format, args...)
}

// prepare applies the option/problem wiring shared by Init and Restore and
// constructs the (uninitialized) replica engines.
func (e *ParallelIslands) prepare(prob objective.Problem, opts search.Options) error {
	p := e.ext
	if p == nil {
		var err error
		if p, err = search.Extension[IslandsParams](opts); err != nil {
			return e.errorf("%w", err)
		}
	}
	opts.Normalize()
	e.p = *p
	e.p.normalize()
	e.opts = opts
	e.epoch, e.evals, e.final = 0, 0, false
	n := e.p.Replicas
	e.engines = make([]search.Engine, n)
	e.probs = make([]objective.Problem, n)
	e.counts = make([]int64, n)
	for i := range e.engines {
		eng, err := search.New(e.p.Algo)
		if err != nil {
			return e.errorf("%w", err)
		}
		if e.p.MigrationEvery > 0 {
			if _, ok := eng.(search.Migrator); !ok {
				return e.errorf("engine %q does not support migration (search.Migrator); set MigrationEvery < 0 to run isolated replicas", e.p.Algo)
			}
		}
		if e.wrap != nil {
			eng = e.wrap(i, eng)
		}
		e.engines[i] = eng
		e.probs[i] = childProblem(prob)
	}
	e.pooled = make(ga.Population, 0, e.opts.PopSize)
	e.reps.reset(n)
	e.fails = make([]replicaFailure, n)
	return nil
}

// replicaShares splits popSize across n replicas so the shares sum EXACTLY
// to popSize — the ensemble must stay budget-matched with a single engine
// at the same population. Shares are dealt in pairs (largest first) so at
// most one share is odd: engines that round odd populations up (nsga2)
// then inflate the total by at most 1, the same guarantee a single such
// engine gives. Tiny populations floor at 2 per replica.
func replicaShares(popSize, n int) []int {
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

// ReplicaLabel is the rng.ChildSeed label replica i's seed is derived
// under, so a test can name the replica it targets by its seed.
const ReplicaLabel = "sched/replica"

// ReplicaOptions builds replica i's options for an n-replica ensemble over
// opts: its share of the total population, the matching block of
// Options.Initial, a per-replica derived seed, and the shared knobs.
// Exported so a tool that inspects an ensemble's replica checkpoints can
// rebuild the configuration each replica ran under.
func ReplicaOptions(opts search.Options, n, i int, extra any) search.Options {
	shares := replicaShares(opts.PopSize, n)
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
	if err := runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		return e.engines[i].Init(e.probs[i], e.replicaOptions(i))
	}); err != nil {
		return err
	}
	e.tally()
	return nil
}

// Step implements search.Engine: one epoch — every live replica advances
// one generation concurrently, then migration runs at the epoch barrier
// when due, in replica-index order.
//
// Replica faults degrade the ensemble instead of aborting it: a replica
// whose Step keeps failing after the retry budget is dropped at the epoch
// barrier, in replica-index order, and the remaining replicas finish the
// run bit-identically to a run configured without the dropped replica's
// steps. The accumulated *ReplicaError is returned by the finalizing Step,
// alongside the valid pooled Result — or immediately, when no replica
// survives.
func (e *ParallelIslands) Step() error {
	if e.Done() {
		return nil
	}
	clear(e.fails)
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
			e.reps.drop(i, f.err, f.poisoned)
		}
	}
	e.tally()
	if e.reps.allDead() {
		e.finalize()
		return e.reps.takeErr(e.Name())
	}
	e.epoch++
	if e.p.MigrationEvery > 0 && e.epoch%e.p.MigrationEvery == 0 && !e.done() {
		e.migrate()
	}
	if e.done() {
		e.finalize()
		return e.reps.takeErr(e.Name())
	}
	return nil
}

// tally reads every replica's own evaluation count at the barrier; their
// sum is the ensemble's budget. A poisoned replica keeps the count it had
// before its abandoned step: its state belongs to the runaway step.
func (e *ParallelIslands) tally() {
	e.evals = 0
	for i, eng := range e.engines {
		if !e.reps.poisoned[i] {
			e.counts[i] = eng.Evals()
		}
		e.evals += e.counts[i]
	}
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

// migrate performs one deterministic exchange over the live replicas: all
// emigrants are selected (as clones) before any immigration, so the
// exchange is simultaneous and order-independent; destinations are then
// served in replica-index order. Dropped replicas fall out of the ring (or
// star) — the topology contracts over the survivors, in index order, so the
// exchange stays deterministic at any worker count.
func (e *ParallelIslands) migrate() {
	live := e.liveIndices()
	n := len(live)
	if n < 2 {
		return
	}
	mig := func(k int) search.Migrator { return e.engines[live[k]].(search.Migrator) }
	if e.p.Topology == Star {
		hub := mig(0)
		broadcast := hub.Emigrants(e.p.Migrants)
		var inbound ga.Population
		for k := 1; k < n; k++ {
			inbound = append(inbound, mig(k).Emigrants(e.p.Migrants)...)
		}
		hub.Immigrate(inbound)
		for k := 1; k < n; k++ {
			// Each leaf takes its own clones of the hub's elite; a shared
			// individual across engines would alias mutable state.
			mig(k).Immigrate(broadcast.Clone())
		}
		return
	}
	outbound := make([]ga.Population, n)
	for k := range outbound {
		outbound[k] = mig(k).Emigrants(e.p.Migrants)
	}
	for k := range outbound {
		mig((k + 1) % n).Immigrate(outbound[k])
	}
}

// done is Done without the finalized fast path: the budget is exhausted or
// every replica still alive has completed (all-dead finalizes in Step).
func (e *ParallelIslands) done() bool {
	if e.opts.MaxEvals > 0 && e.evals >= e.opts.MaxEvals {
		return true
	}
	for i, eng := range e.engines {
		if !e.reps.dead[i] && !eng.Done() {
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
// replica, as tallied at the last epoch barrier.
func (e *ParallelIslands) Evals() int64 { return e.evals }

// Population implements search.Engine: the pooled view across replicas,
// globally ranked once the run is done. Invalidated by Step.
func (e *ParallelIslands) Population() ga.Population {
	if e.final {
		return e.pooled
	}
	return e.poolView()
}

func (e *ParallelIslands) poolView() ga.Population {
	e.pooled = e.reps.pool(e.pooled, e.engines)
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
// snapshot as placeholders holding only their last evaluation count —
// their state belongs to a runaway step.
func (e *ParallelIslands) Checkpoint() *search.Checkpoint {
	sn := &IslandsSnapshot{
		Inner:    make([]*search.Checkpoint, len(e.engines)),
		Dead:     append([]bool(nil), e.reps.dead...),
		Poisoned: append([]bool(nil), e.reps.poisoned...),
	}
	for i, eng := range e.engines {
		if e.reps.poisoned[i] {
			sn.Inner[i] = &search.Checkpoint{Algo: poisonedAlgo, Evals: e.counts[i]}
			continue
		}
		sn.Inner[i] = eng.Checkpoint()
	}
	return &search.Checkpoint{Algo: e.Name(), Gen: e.epoch, Evals: e.evals, State: sn}
}

// Restore implements search.Engine.
func (e *ParallelIslands) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if cp.Algo != e.Name() {
		return e.errorf("checkpoint is for %q", cp.Algo)
	}
	sn, ok := cp.State.(*IslandsSnapshot)
	if !ok {
		return e.errorf("checkpoint state is %T, want *sched.IslandsSnapshot", cp.State)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	if len(sn.Inner) != len(e.engines) {
		return e.errorf("checkpoint has %d replicas, options configure %d", len(sn.Inner), len(e.engines))
	}
	e.epoch = cp.Gen
	e.reps.restore(len(e.engines), sn.Dead, sn.Poisoned)
	if err := runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		if e.reps.poisoned[i] {
			e.counts[i] = sn.Inner[i].Evals // unrecoverable: stays dropped, keeps its count
			return nil
		}
		return e.engines[i].Restore(e.probs[i], e.replicaOptions(i), sn.Inner[i])
	}); err != nil {
		return e.errorf("%w", err)
	}
	e.tally()
	if e.done() {
		e.finalize()
	}
	return nil
}
