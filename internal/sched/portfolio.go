package sched

import (
	"encoding/gob"
	"fmt"
	"time"

	"sacga/internal/ga"
	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/search"
)

func init() {
	search.Register(NamePortfolio, func() search.Engine { return new(Portfolio) })
	search.RegisterExtension(NamePortfolio, func() any { return new(PortfolioParams) })
	gob.Register(&PortfolioSnapshot{}) // so Checkpoint.State round-trips through encoding/gob
}

// Member is one engine in a portfolio race.
type Member struct {
	// Algo is the engine's registry name.
	Algo string
	// Extra is the member's extension struct; nil selects its defaults.
	Extra any
}

// PortfolioParams is the Portfolio extension struct carried by
// search.Options.Extra. A portfolio must declare at least one member.
type PortfolioParams struct {
	// Members are the racing engines. Each gets the full Options.PopSize
	// and a seed derived from its index — the comparative-EA setting:
	// identical starting conditions, one shared evaluation budget.
	Members []Member
	// EpochGens is the base number of generations every live member
	// advances per epoch (default 1).
	EpochGens int
	// Boost is how many extra generations the previous epoch's
	// best-scoring member receives; 0 selects the default (2). Negative
	// disables the boost: a fair round-robin, scored for reporting only.
	Boost int
	// StepWorkers bounds how many members step concurrently within an
	// epoch: 0 selects GOMAXPROCS, 1 forces sequential round-robin.
	// Results are bit-identical at every setting.
	StepWorkers int
	// StepRetries is how many extra attempts a failing member generation
	// gets before the member is dropped at the epoch barrier (default 2,
	// negative = none).
	StepRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 retries immediately.
	RetryBackoff time.Duration
	// StepTimeout arms a per-member watchdog around every generation
	// attempt (see search.GuardedStep); 0 leaves member steps unguarded.
	StepTimeout time.Duration
	// Project maps an individual to the 2-D point the hypervolume score
	// reduces; nil selects the default (feasible individuals' first two
	// objectives), matching search.HypervolumeObserver.
	Project func(ind *ga.Individual) (hypervolume.Point2, bool)
}

func (p *PortfolioParams) normalize() {
	if p.EpochGens <= 0 {
		p.EpochGens = 1
	}
	if p.StepRetries == 0 {
		p.StepRetries = 2
	}
	if p.Boost == 0 {
		p.Boost = 2
	}
	if p.Boost < 0 {
		p.Boost = 0
	}
}

// Portfolio races heterogeneous engines under one shared evaluation
// budget. Each epoch every live member advances EpochGens generations
// (concurrently — members are independent); at the epoch barrier every
// member's population is reduced to the paper's staircase hypervolume
// metric (lower is better), and the best-scoring live member is awarded
// Boost extra generations the next epoch — budget flows toward whichever
// algorithm is currently winning, deterministically (scores are pure
// functions of the populations; ties break by member index).
//
// It implements search.Engine (registered as "portfolio"). Population() is
// the pooled view across members, globally ranked once the race completes,
// so the portfolio's front is the best of every member's front.
type Portfolio struct {
	prob    objective.Problem
	opts    search.Options
	p       PortfolioParams
	budget  search.EvalBudget
	engines []search.Engine
	probs   []objective.Problem // per-member counters over prob (own accounting)
	epoch   int
	scores  []float64
	best    int // previous epoch's best member; -1 before the first scoring
	pooled  ga.Population
	final   bool
	reps    replicaSet
	fails   []replicaFailure // per-epoch scratch, index-addressed

	calc hypervolume.Calc
	pts  []hypervolume.Point2
}

// PortfolioSnapshot is the composite checkpoint payload: every member's
// checkpoint plus the reallocation state. Dead/Poisoned record the
// fault-tolerance state (nil in pre-fault-tolerance snapshots means all
// members alive); Inner holds an empty placeholder for poisoned members.
type PortfolioSnapshot struct {
	Epoch    int
	Best     int
	Scores   []float64
	Inner    []*search.Checkpoint
	Dead     []bool
	Poisoned []bool
}

// Name implements search.Engine.
func (e *Portfolio) Name() string { return NamePortfolio }

// prepare applies the option/problem wiring shared by Init and Restore and
// constructs the (uninitialized) member engines.
func (e *Portfolio) prepare(prob objective.Problem, opts search.Options) error {
	p, err := search.Extension[PortfolioParams](opts)
	if err != nil {
		return fmt.Errorf("sched: portfolio: %w", err)
	}
	if len(p.Members) == 0 {
		return fmt.Errorf("sched: portfolio: PortfolioParams must declare at least one member")
	}
	opts.Normalize()
	e.p = *p
	e.p.normalize()
	e.opts = opts
	e.prob = e.budget.Attach(prob, opts.MaxEvals)
	e.epoch = 0
	e.best = -1
	e.final = false
	e.engines = make([]search.Engine, len(e.p.Members))
	e.probs = make([]objective.Problem, len(e.p.Members))
	for i, m := range e.p.Members {
		eng, err := search.New(m.Algo)
		if err != nil {
			return fmt.Errorf("sched: portfolio member %d: %w", i, err)
		}
		e.engines[i] = eng
		e.probs[i] = childProblem(e.prob)
	}
	e.scores = make([]float64, len(e.engines))
	e.pooled = make(ga.Population, 0, len(e.engines)*opts.PopSize)
	e.reps.reset(len(e.engines))
	e.fails = make([]replicaFailure, len(e.engines))
	return nil
}

// memberOptions builds member i's options: the full population and a
// per-member derived seed.
func (e *Portfolio) memberOptions(i int) search.Options {
	return childOptions(e.opts, e.opts.PopSize, e.opts.Generations, "sched/portfolio", i, e.p.Members[i].Extra, e.opts.Initial)
}

// Init implements search.Engine: every member is seeded and evaluated
// (concurrently when StepWorkers allows), then scored for the first
// epoch's allocation.
func (e *Portfolio) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	if err := runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		return e.engines[i].Init(e.probs[i], e.memberOptions(i))
	}); err != nil {
		return fmt.Errorf("sched: portfolio: %w", err)
	}
	e.rescore()
	return nil
}

// Step implements search.Engine: one epoch — every live member advances
// its allocation concurrently, then the barrier rescores the race.
//
// Member faults degrade the race instead of aborting it: a member whose
// generation keeps failing after the retry budget is dropped at the epoch
// barrier, in member-index order;
// its last-good population still competes in the final pooled front (unless
// the watchdog abandoned it mid-step) but it receives no further budget and
// never holds the boost. The accumulated *ReplicaError is returned by the
// finalizing Step alongside the valid pooled Result — or immediately when
// no member survives.
func (e *Portfolio) Step() error {
	if e.Done() {
		return nil
	}
	base, boost, best := e.p.EpochGens, e.p.Boost, e.best
	clear(e.fails)
	runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		eng := e.engines[i]
		if e.reps.dead[i] {
			return nil
		}
		alloc := base
		if i == best {
			alloc += boost
		}
		for g := 0; g < alloc && !eng.Done(); g++ {
			err, poisoned := StepWithRetry(eng, e.probs[i], e.p.StepRetries, e.p.RetryBackoff, e.p.StepTimeout)
			if err != nil {
				e.fails[i] = replicaFailure{err: err, poisoned: poisoned}
				return nil
			}
		}
		return nil
	})
	for i, f := range e.fails { // epoch barrier: drops in member-index order
		if f.err != nil {
			e.reps.drop(i, f.err, f.poisoned)
		}
	}
	if e.reps.allDead() {
		e.finalize()
		return e.reps.takeErr(e.Name())
	}
	e.epoch++
	e.rescore()
	if e.done() {
		e.finalize()
		return e.reps.takeErr(e.Name())
	}
	return nil
}

// rescore reduces every member's population to the staircase metric and
// elects the next epoch's boosted member: the best (lowest) score among
// live members, ties broken by index. Sequential and pure — the same
// populations always elect the same member. Poisoned members keep their
// last score (their population is untouchable); dead-but-valid members are
// rescored but never elected.
func (e *Portfolio) rescore() {
	project := e.p.Project
	if project == nil {
		project = defaultProject
	}
	e.best = -1
	for i, eng := range e.engines {
		if e.reps.poisoned[i] {
			continue
		}
		e.pts = e.pts[:0]
		for _, ind := range eng.Population() {
			if p, ok := project(ind); ok {
				e.pts = append(e.pts, p)
			}
		}
		e.scores[i] = e.calc.PaperMetric(e.pts)
		if eng.Done() || e.reps.dead[i] {
			continue
		}
		if e.best < 0 || e.scores[i] < e.scores[e.best] {
			e.best = i
		}
	}
}

func defaultProject(ind *ga.Individual) (hypervolume.Point2, bool) {
	if !ind.Feasible() || len(ind.Objectives) < 2 {
		return hypervolume.Point2{}, false
	}
	return hypervolume.Point2{X: ind.Objectives[0], Y: ind.Objectives[1]}, true
}

// done is Done without the finalized fast path: the budget is exhausted or
// every member still alive has completed (all-dead finalizes in Step).
func (e *Portfolio) done() bool {
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
func (e *Portfolio) Done() bool { return e.final || e.done() }

// Generation implements search.Engine: the number of epochs executed.
func (e *Portfolio) Generation() int { return e.epoch }

// Evals implements search.Engine: evaluations across every member,
// counted once by the shared budget.
func (e *Portfolio) Evals() int64 { return e.budget.Evals() }

// Scores returns the latest per-member staircase metrics (lower is
// better; +Inf for a member with no scoreable point), in member order.
func (e *Portfolio) Scores() []float64 { return e.scores }

// Best returns the member index currently holding the boost (-1 when all
// members are done).
func (e *Portfolio) Best() int { return e.best }

// Population implements search.Engine: the pooled view across members,
// globally ranked once the race is done. Invalidated by Step.
func (e *Portfolio) Population() ga.Population {
	if e.final {
		return e.pooled
	}
	return e.poolView()
}

func (e *Portfolio) poolView() ga.Population {
	e.pooled = e.reps.pool(e.pooled, e.engines)
	return e.pooled
}

// finalize pools the members and assigns global ranks — one global
// competition over everything the portfolio produced.
func (e *Portfolio) finalize() {
	e.poolView().AssignRanksAndCrowding()
	e.final = true
}

// Checkpoint implements search.Engine.
func (e *Portfolio) Checkpoint() *search.Checkpoint {
	sn := &PortfolioSnapshot{
		Epoch:    e.epoch,
		Best:     e.best,
		Scores:   append([]float64(nil), e.scores...),
		Inner:    make([]*search.Checkpoint, len(e.engines)),
		Dead:     append([]bool(nil), e.reps.dead...),
		Poisoned: append([]bool(nil), e.reps.poisoned...),
	}
	for i, eng := range e.engines {
		if e.reps.poisoned[i] {
			sn.Inner[i] = &search.Checkpoint{Algo: poisonedAlgo}
			continue
		}
		sn.Inner[i] = eng.Checkpoint()
	}
	return &search.Checkpoint{Algo: e.Name(), Gen: e.epoch, Evals: e.Evals(), State: sn}
}

// Restore implements search.Engine.
func (e *Portfolio) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if cp.Algo != e.Name() {
		return fmt.Errorf("sched: portfolio: checkpoint is for %q", cp.Algo)
	}
	sn, ok := cp.State.(*PortfolioSnapshot)
	if !ok {
		return fmt.Errorf("sched: portfolio: checkpoint state is %T, want *sched.PortfolioSnapshot", cp.State)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	if len(sn.Inner) != len(e.engines) {
		return fmt.Errorf("sched: portfolio: checkpoint has %d members, options configure %d", len(sn.Inner), len(e.engines))
	}
	for i, inner := range sn.Inner {
		if i < len(sn.Poisoned) && sn.Poisoned[i] {
			continue // poisoned members snapshot as placeholders by design
		}
		if inner == nil || inner.Algo != e.p.Members[i].Algo {
			return fmt.Errorf("sched: portfolio member %d: checkpoint ran %q, options configure %q",
				i, innerAlgo(inner), e.p.Members[i].Algo)
		}
	}
	e.budget.RestoreEvals(cp.Evals)
	e.epoch = sn.Epoch
	e.best = sn.Best
	copy(e.scores, sn.Scores)
	e.reps.restore(len(e.engines), sn.Dead, sn.Poisoned)
	if err := runIndexed(len(e.engines), e.p.StepWorkers, func(i int) error {
		if e.reps.poisoned[i] {
			return nil // unrecoverable: stays dropped, contributes nothing
		}
		return e.engines[i].Restore(e.probs[i], e.memberOptions(i), sn.Inner[i])
	}); err != nil {
		return fmt.Errorf("sched: portfolio: %w", err)
	}
	if e.done() {
		e.finalize()
	}
	return nil
}
