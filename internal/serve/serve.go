// Package serve is the multi-tenant optimization-as-a-service layer: a job
// server that accepts optimization jobs over a wire schema (problem name +
// engine name from the search registry + search.JobOptions + extension
// parameters, validated at admission), runs many jobs concurrently over a
// bounded shared worker budget with fair round-robin scheduling, streams
// per-generation observer frames to clients over SSE, persists per-job
// checkpoints so jobs survive server restarts, and dedups identical
// submissions by configuration fingerprint. It is the front end that turns
// the paper reproduction's one-shot CLIs into a long-running system.
//
// # Scheduling and determinism
//
// Every job is one search.Engine driven step-wise. The scheduler keeps all
// runnable jobs in a FIFO turn queue; Config.Slots worker goroutines pop a
// job, advance it exactly one generation (one Step), and push it to the
// back — round-robin fairness, one Step per turn, the sched package's
// turn discipline. A job's engine is only ever touched by the goroutine
// holding its turn (a job is in the queue XOR being stepped), each engine
// owns its RNG streams, arena and buffers, and evaluation results are
// written by index on the shared pool — the same ingredients behind the
// sched determinism contract — so every job's result is bit-identical to a
// solo cmd/sacga run of the same problem/engine/options/seed, at any Slots
// setting and any co-tenant mix (property-tested).
//
// # Fault isolation
//
// Each turn runs under search.GuardedStep: a panicking or quarantining
// tenant degrades itself — terminal state "degraded" or "failed", with the
// best-so-far front served where the engine remains valid — and never the
// serving process or its co-tenants (the cmd/sacga exit-code-4 contract,
// jobified). With Config.StepTimeout set, a turn that overruns it is
// abandoned: the job fails with no front and its slot is freed for the
// next turn.
//
// # Durability
//
// With Config.Dir set, admission persists each job's wire request to
// <id>.job, the scheduler checkpoints running jobs to <id>.ckpt every
// CheckpointEvery generations (search.SaveCheckpoint: atomic rename, CRC
// footer, .prev rotation) and on drain, and terminal results land in
// <id>.done; every one of these files is installed by
// search.WriteFileAtomic, fsynced with its directory. On boot the server
// replays the job table from the directory: done jobs serve their
// persisted results, interrupted jobs resume from their newest
// trustworthy checkpoint (search.LoadLatestCheckpoint) and complete
// bit-identically to never having stopped. Job IDs are
// search.Fingerprint keys over the result-determining configuration, so
// resubmitting a job a restart recovered attaches to it instead of
// re-running.
package serve

import (
	"errors"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	_ "sacga/internal/search/engines" // every registry engine selectable by wire name
)

// Config tunes a Server. The zero value serves from memory only (no
// persistence) with NumCPU step slots.
type Config struct {
	// Build constructs a job's problem from its spec. nil selects
	// probspec.Spec.BuildValidated — the same construction every CLI uses.
	// Tests substitute fault-injecting builders here.
	Build func(spec probspec.Spec) (prob objective.Problem, circuit bool, err error)
	// Dir is the state directory (job specs, checkpoints, results). ""
	// disables persistence: jobs do not survive a restart.
	Dir string
	// Slots bounds the number of concurrently stepping jobs — the shared
	// worker budget. Defaults to NumCPU. Evaluation-level parallelism
	// inside each step additionally shares the process-wide ga pool.
	Slots int
	// Workers is the per-job evaluation parallelism (search.Options
	// .Workers; 0 = NumCPU). Never part of a job's identity: results are
	// bit-identical at any worker count.
	Workers int
	// CheckpointEvery is the generations between durable checkpoints of
	// each running job (default 50; meaningful only with Dir).
	CheckpointEvery int
	// StepTimeout, when > 0, arms the per-turn watchdog (see
	// search.GuardedStep): a turn that overruns it is abandoned, its job
	// failed with no front and its slot freed, instead of a wedged tenant
	// occupying the slot forever.
	StepTimeout time.Duration
	// Fleet, when non-nil, is the server's shared worker fleet (a
	// fleet.Pool over TCP worker daemons, built by sacgad -fleet). Jobs
	// submitting the "sharded-islands" engine draw worker sessions from
	// it — the fleet is the only worker source a job can use:
	// shard.Params.Pool never crosses the wire, and without a fleet the
	// engine is rejected at admission. The pool is owned by the
	// caller, shared across tenants, and never closed by the server;
	// results remain bit-identical to a solo run at any fleet size.
	Fleet *fleet.Pool
	// MaxPopSize, MaxGenerations and MaxJobs are admission guardrails
	// protecting the shared process from one oversized request. Defaults:
	// 10000, 1000000, 10000.
	MaxPopSize     int
	MaxGenerations int
	MaxJobs        int
	// Log receives operational messages (checkpoint failures, recovery
	// notes). nil selects log.Default().
	Log *log.Logger
}

// ErrDraining is returned by Submit once Drain has begun; HTTP maps it to
// 503 so load balancers retry against another instance.
var ErrDraining = errors.New("serve: server is draining")

// Server is the job server. Construct with New, expose over HTTP with
// Handler, stop with Drain.
type Server struct {
	cfg   Config
	queue turnQueue

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // admission order, the list endpoint's ordering
	draining bool

	workers sync.WaitGroup
}

// New builds a server, recovers the job table from cfg.Dir (when set), and
// starts the scheduler workers. Recovered unfinished jobs are already
// queued when New returns.
func New(cfg Config) (*Server, error) {
	if cfg.Build == nil {
		cfg.Build = func(spec probspec.Spec) (objective.Problem, bool, error) {
			return spec.BuildValidated()
		}
	}
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.NumCPU()
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50
	}
	if cfg.MaxPopSize <= 0 {
		cfg.MaxPopSize = 10000
	}
	if cfg.MaxGenerations <= 0 {
		cfg.MaxGenerations = 1000000
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 10000
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	s := &Server{cfg: cfg, jobs: map[string]*Job{}}
	s.queue.init()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
		if err := s.recoverJobs(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Slots; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.worker()
		}()
	}
	return s, nil
}

// Drain gracefully stops the server: admission starts refusing
// (ErrDraining), workers finish the turns they hold and exit, every
// still-running job is checkpointed to disk (with Dir) at its last
// completed generation, cancelled-but-not-yet-finalized jobs finalize, and
// all stream subscribers are released so HTTP handlers can unwind. It
// returns the number of jobs interrupted mid-run — the jobs a restarted
// server will resume. Idempotent; concurrent calls share one drain.
func (s *Server) Drain() int {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.workers.Wait() // after this no goroutine touches any engine
	if already {
		return 0
	}

	interrupted := 0
	for _, j := range s.snapshotJobs() {
		if j.State().Terminal() {
			continue
		}
		if j.takeCancel() {
			if j.initted {
				s.finalizeFromEngine(j, StateCancelled, errCancelled)
			} else {
				j.finalize(StateCancelled, errCancelled, nil, 0, 0)
				s.persistResult(j)
			}
			continue
		}
		if j.initted {
			if err := s.checkpoint(j); err != nil {
				s.cfg.Log.Printf("serve: drain checkpoint %s: %v", j.ID, err)
			}
			interrupted++
		}
		j.closeSubs()
	}
	return interrupted
}

// snapshotJobs copies the job list under the table lock.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// job looks a job up by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// WorkerStats reports the shared fleet's per-worker health snapshot.
// Empty (never nil — it serializes as a JSON array) when the server runs
// without a fleet.
func (s *Server) WorkerStats() []fleet.WorkerStat {
	if s.cfg.Fleet == nil {
		return []fleet.WorkerStat{}
	}
	return s.cfg.Fleet.Stats()
}

// Jobs returns the admission-ordered job views.
func (s *Server) Jobs() []JobView {
	jobs := s.snapshotJobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}
