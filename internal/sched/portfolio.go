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
// StepWorkers and StepTimeout are excluded from JSON, as on IslandsParams.
type PortfolioParams struct {
	// Members are the racing engines. Each gets the full Options.PopSize
	// and a seed derived from its index — the comparative-EA setting:
	// identical starting conditions, one shared evaluation budget.
	Members []Member
	// StepWorkers bounds how many members step concurrently within an
	// epoch: 0 selects GOMAXPROCS, 1 forces sequential round-robin.
	// Results are bit-identical at every setting.
	StepWorkers int `json:"-"`
	// StepTimeout arms a per-member watchdog around every generation
	// attempt (see search.GuardedStep); 0 arms none. A panicking Step is
	// recovered as a droppable error either way.
	StepTimeout time.Duration `json:"-"`
	// Project maps an individual to the 2-D point the hypervolume score
	// reduces; nil selects the default (feasible individuals' first two
	// objectives), matching search.HypervolumeObserver.
	Project func(ind *ga.Individual) (hypervolume.Point2, bool)
}

// boost is how many extra generations the previous epoch's best-scoring
// member advances, on top of the one every live member gets.
const boost = 2

// Portfolio races heterogeneous engines under one shared evaluation
// budget. Each epoch every live member advances one generation
// (concurrently — members are independent); at the epoch barrier every
// member's population is reduced to the paper's staircase hypervolume
// metric (lower is better), and the best-scoring live member is awarded
// boost extra generations the next epoch — budget flows toward whichever
// algorithm is currently winning, deterministically (scores are pure
// functions of the populations; ties break by member index).
//
// It implements search.Engine (registered as "portfolio") on the replica
// loop ParallelIslands runs. Population() is the pooled view across
// members, globally ranked once the race completes, so the portfolio's
// front is the best of every member's front.
type Portfolio struct {
	replicaLoop
	p      PortfolioParams
	scores []float64
	best   int // previous epoch's best member; -1 before the first scoring

	calc hypervolume.Calc
	pts  []hypervolume.Point2
}

// PortfolioSnapshot is the composite checkpoint payload: every member's
// checkpoint plus the reallocation state. Dead/Poisoned record the
// fault-tolerance state (nil in pre-fault-tolerance snapshots means all
// members alive); Inner holds an empty placeholder for poisoned members,
// carrying only the member's last evaluation count.
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
	e.name = NamePortfolio
	p, err := search.Extension[PortfolioParams](opts)
	if err != nil {
		return e.errorf("%w", err)
	}
	if len(p.Members) == 0 {
		return e.errorf("PortfolioParams must declare at least one member")
	}
	e.p = *p
	e.workers, e.retries, e.timeout = e.p.StepWorkers, StepRetries, e.p.StepTimeout
	e.scores = make([]float64, len(e.p.Members))
	e.best = -1
	return e.reset(prob, opts, len(e.p.Members), func(i int) (search.Engine, error) {
		eng, err := search.New(e.p.Members[i].Algo)
		if err != nil {
			return nil, fmt.Errorf("sched: portfolio member %d: %w", i, err)
		}
		return eng, nil
	}, e.memberOptions)
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
	if err := e.init(); err != nil {
		return e.errorf("%w", err)
	}
	e.rescore()
	return nil
}

// Step implements search.Engine: one epoch — every live member advances
// its allocation concurrently, then the barrier rescores the race.
//
// Member faults degrade the race instead of aborting it: a member whose
// generation keeps failing after the retry budget is dropped at the epoch
// barrier, in member-index order; its last-good population still competes
// in the final pooled front (unless the watchdog abandoned it mid-step) but
// it receives no further budget and never holds the boost. The accumulated
// *ReplicaError is returned by the finalizing Step alongside the valid
// pooled Result — or immediately when no member survives.
func (e *Portfolio) Step() error {
	return e.step(func(i int) int {
		if i == e.best {
			return 1 + boost
		}
		return 1
	}, e.rescore)
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
		if e.poisoned[i] {
			continue
		}
		e.pts = e.pts[:0]
		for _, ind := range eng.Population() {
			if p, ok := project(ind); ok {
				e.pts = append(e.pts, p)
			}
		}
		e.scores[i] = e.calc.PaperMetric(e.pts)
		if eng.Done() || e.dead[i] {
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

// Best returns the member index currently holding the boost (-1 when all
// members are done).
func (e *Portfolio) Best() int { return e.best }

// Checkpoint implements search.Engine.
func (e *Portfolio) Checkpoint() *search.Checkpoint {
	sn := &PortfolioSnapshot{Epoch: e.epoch, Best: e.best, Scores: append([]float64(nil), e.scores...)}
	sn.Inner, sn.Dead, sn.Poisoned = e.snapshot()
	return &search.Checkpoint{Algo: e.Name(), Gen: e.epoch, Evals: e.evals, State: sn}
}

// Restore implements search.Engine.
func (e *Portfolio) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	sn, err := search.StateOf[PortfolioSnapshot](e.Name(), cp)
	if err != nil {
		return fmt.Errorf("sched: %s: %w", e.Name(), err)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	e.best = sn.Best
	copy(e.scores, sn.Scores)
	return e.restore(sn.Epoch, sn.Inner, sn.Dead, sn.Poisoned)
}
