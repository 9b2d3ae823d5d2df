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

// IslandsParams is the ParallelIslands extension struct carried by
// search.Options.Extra. The zero value selects the defaults: 4 NSGA-II
// replicas on a ring, migrating 2 individuals every 10 epochs.
// StepWorkers and StepTimeout are the operator's, not part of a job's
// wire form: they are excluded from JSON.
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
	// StepWorkers bounds how many replicas step concurrently within an
	// epoch: 0 selects GOMAXPROCS, 1 forces sequential round-robin
	// stepping. Results are bit-identical at every setting.
	StepWorkers int `json:"-"`
	// StepTimeout arms a per-replica watchdog around every Step attempt
	// (see search.GuardedStep); 0 arms none. A panicking Step is recovered
	// as a droppable error either way.
	StepTimeout time.Duration `json:"-"`
}

// Normalize applies the defaults in place. The shard coordinator takes
// its ensemble defaults from here too.
func (p *IslandsParams) Normalize() {
	if p.Replicas <= 0 {
		p.Replicas = 4
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
}

// ParallelIslands steps N replicas of one engine concurrently — one
// scheduler epoch advances every live replica one generation — and applies
// deterministic ring migration at fixed epochs. The final Step pools
// the replicas and ranks the pooled population, so Population() after Done
// is the one global non-dominated competition the paper performs at the
// end of every run.
//
// It implements search.Engine (registered as "parallel-islands") and is
// bit-identical to sequential round-robin stepping at any StepWorkers and
// GOMAXPROCS setting. The cross-process shard coordinator runs this same
// loop over remote replicas (see Ensemble).
type ParallelIslands struct {
	replicaLoop
	ext     *IslandsParams                                 // Ensemble's params; nil reads Options.Extra
	wrap    func(i int, local search.Engine) search.Engine // Ensemble's replica wrapper
	p       IslandsParams
	livebuf []int // scratch for liveIndices
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
// The loop steps a wrapped replica once per epoch and leaves its
// StepRetries to the wrapper. The cross-process shard coordinator wraps
// every replica in one whose generations run in a worker process, over
// its own retry ladder.
func (e *ParallelIslands) Ensemble(name string, p IslandsParams, wrap func(i int, local search.Engine) search.Engine) {
	e.name, e.ext, e.wrap = name, &p, wrap
}

// prepare applies the option/problem wiring shared by Init and Restore and
// constructs the (uninitialized) replica engines.
func (e *ParallelIslands) prepare(prob objective.Problem, opts search.Options) error {
	e.name = e.Name() // the loop's errors carry it
	p := e.ext
	if p == nil {
		var err error
		if p, err = search.Extension[IslandsParams](opts); err != nil {
			return e.errorf("%w", err)
		}
	}
	e.p = *p
	e.p.Normalize()
	e.workers, e.retries, e.timeout = e.p.StepWorkers, StepRetries, e.p.StepTimeout
	if e.wrap != nil {
		e.retries = 0
	}
	return e.reset(prob, opts, e.p.Replicas, func(i int) (search.Engine, error) {
		eng, err := search.New(e.p.Algo)
		if err != nil {
			return nil, e.errorf("%w", err)
		}
		if e.p.MigrationEvery > 0 {
			if _, ok := eng.(search.Migrator); !ok {
				return nil, e.errorf("engine %q does not support migration (search.Migrator); set MigrationEvery < 0 to run isolated replicas", e.p.Algo)
			}
		}
		if e.wrap != nil {
			eng = e.wrap(i, eng)
		}
		return eng, nil
	}, e.replicaOptions)
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
	return e.init()
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
	return e.step(func(int) int { return 1 }, func() {
		if e.p.MigrationEvery > 0 && e.epoch%e.p.MigrationEvery == 0 && !e.done() {
			e.migrate()
		}
	})
}

// liveIndices returns the indices of replicas still being stepped, in
// ascending order.
func (e *ParallelIslands) liveIndices() []int {
	e.livebuf = e.livebuf[:0]
	for i := range e.engines {
		if !e.dead[i] {
			e.livebuf = append(e.livebuf, i)
		}
	}
	return e.livebuf
}

// migrate performs one deterministic ring exchange over the live replicas:
// each sends its emigrants to the next (k → k+1 mod N), the classic
// island-model ring of the paper's reference [7]. All emigrants are
// selected (as clones) before any immigration, so the exchange is
// simultaneous and order-independent; destinations are then served in
// replica-index order. Dropped replicas fall out of the ring —
// it contracts over the survivors, in index order, so the exchange stays
// deterministic at any worker count.
func (e *ParallelIslands) migrate() {
	live := e.liveIndices()
	n := len(live)
	if n < 2 {
		return
	}
	mig := func(k int) search.Migrator { return e.engines[live[k]].(search.Migrator) }
	outbound := make([]ga.Population, n)
	for k := range outbound {
		outbound[k] = mig(k).Emigrants(e.p.Migrants)
	}
	for k := range outbound {
		mig((k + 1) % n).Immigrate(outbound[k])
	}
}

// Checkpoint implements search.Engine: a composite snapshot of every
// usable replica's checkpoint, plus the liveness state. Poisoned replicas
// snapshot as placeholders holding only their last evaluation count —
// their state belongs to a runaway step.
func (e *ParallelIslands) Checkpoint() *search.Checkpoint {
	sn := new(IslandsSnapshot)
	sn.Inner, sn.Dead, sn.Poisoned = e.snapshot()
	return &search.Checkpoint{Algo: e.Name(), Gen: e.epoch, Evals: e.evals, State: sn}
}

// Restore implements search.Engine.
func (e *ParallelIslands) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	sn, err := search.StateOf[IslandsSnapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("sched: %s: %w", e.Name(), err)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	return e.restore(cp.Gen, sn.Inner, sn.Dead, sn.Poisoned)
}
