package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/sched"
	"sacga/internal/search"
	"sacga/internal/shard"
)

// turnQueue is the fair scheduler's heart: a FIFO of runnable jobs. A job
// is either in the queue or held by exactly one worker taking its turn —
// never both — which is what guarantees single-goroutine engine access.
// One pop = one turn = one Step; the worker pushes the job back afterwards,
// so N runnable jobs see their generations interleaved round-robin
// regardless of how long any one generation takes.
type turnQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Job
	closed bool
}

func (t *turnQueue) init() { t.cond = sync.NewCond(&t.mu) }

// push appends a job. Returns false once the queue is closed (drain): the
// job keeps its state and the drain path checkpoints it.
func (t *turnQueue) push(j *Job) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.q = append(t.q, j)
	t.cond.Signal()
	return true
}

// pop blocks for the next turn; ok is false once the queue is closed.
// Turns queued before close are abandoned — drain must not wait for a long
// backlog, and every abandoned job is checkpointed instead.
func (t *turnQueue) pop() (j *Job, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.q) == 0 && !t.closed {
		t.cond.Wait()
	}
	if t.closed {
		return nil, false
	}
	j = t.q[0]
	t.q = t.q[1:]
	return j, true
}

func (t *turnQueue) close() {
	t.mu.Lock()
	t.closed = true
	t.q = nil
	t.cond.Broadcast()
	t.mu.Unlock()
}

// worker is one scheduler slot: it takes turns until drain.
func (s *Server) worker() {
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.turn(j)
	}
}

// turn advances one job by one generation and routes the outcome. The
// caller owns the job's engine for the duration (see turnQueue).
func (s *Server) turn(j *Job) {
	if j.takeCancel() {
		if !j.initted {
			j.finalize(StateCancelled, errCancelled, nil, 0, 0)
			s.persistResult(j)
			return
		}
		s.finalizeFromEngine(j, StateCancelled, errCancelled)
		return
	}
	j.markRunning()
	if !j.initted {
		if !s.initTurn(j) {
			return
		}
		if j.eng.Done() { // a zero-generation budget completes at Init
			s.finalizeFromEngine(j, StateDone, nil)
			return
		}
		// Init evaluated the initial population — that is this turn's
		// work; the first Step happens on the next turn, keeping turns
		// one-generation-sized.
		s.requeue(j)
		return
	}

	// No retries: the first faulting generation ends the job with its
	// best-so-far front, matching cmd/sacga.
	err, poisoned := sched.StepWithRetry(j.eng, j.prob, 0, s.cfg.StepTimeout)
	switch {
	case poisoned:
		// Watchdog abandonment: a runaway step may still be writing the
		// engine's buffers, so nothing in them is servable.
		j.finalize(StateFailed, err, nil, 0, 0)
		s.persistResult(j)
	case err != nil && sched.FaultErr(err):
		// A quarantining generation, or an ensemble that dropped replicas:
		// the step completed — state, counters and population are valid —
		// so the job ends degraded with its best-so-far front, the
		// exit-code-4 analogue.
		s.observe(j)
		s.finalizeFromEngine(j, StateDegraded, err)
	case err != nil:
		j.finalize(StateFailed, err, nil, 0, 0)
		s.persistResult(j)
	default:
		s.observe(j)
		s.maybeCheckpoint(j)
		if j.eng.Done() {
			s.finalizeFromEngine(j, StateDone, nil)
			return
		}
		s.requeue(j)
	}
}

// initTurn builds the problem and engine and runs Init (or Restore, for a
// recovered job). Returns false when the job went terminal.
func (s *Server) initTurn(j *Job) (ok bool) {
	err := s.initJob(j)
	var ee *objective.EvalError
	switch {
	case err == nil:
		j.initted = true
		s.observe(j) // generation 0 frame: the evaluated initial population
		return true
	case errors.As(err, &ee) && j.eng != nil:
		// Quarantined initialization: the engine is valid (the search.Run
		// contract), so the degraded population is still served.
		j.initted = true
		s.observe(j)
		s.finalizeFromEngine(j, StateDegraded, err)
		return false
	default:
		j.finalize(StateFailed, err, nil, 0, 0)
		s.persistResult(j)
		return false
	}
}

// initJob performs the fallible construction under a panic guard: a tenant
// whose configuration explodes an engine's Init must not take the worker
// down with it.
func (s *Server) initJob(j *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: job init panicked: %v", r)
		}
	}()
	prob, circuit, err := s.cfg.Build(j.Spec)
	if err != nil {
		return err
	}
	eng, err := search.New(j.Engine)
	if err != nil {
		return err
	}
	opts := j.Opts.Options()
	opts.Workers = s.cfg.Workers
	if extra, err := decodeExtra(j.Engine, j.rawReq); err != nil {
		return err
	} else if extra != nil {
		opts.Extra = extra
	}
	if j.Engine == shard.NameShardedIslands {
		// A sharded tenant draws its workers from the server's shared
		// fleet, and from nowhere else: the exec-capable Params fields are
		// wiped even though the wire cannot set them (json:"-"), the pool
		// is injected process-locally, and Spec is pinned to the job's own
		// problem so workers always build what the coordinator mirrors.
		// The lease and heartbeat gap, which the wire cannot set either,
		// are shard.Params' defaults, so a worker that stops replying
		// fails the attempt instead of holding the slot.
		p, _ := opts.Extra.(*shard.Params)
		if p == nil {
			p = new(shard.Params)
		}
		p.WorkerArgv, p.WorkerEnv, p.Workers = nil, nil, nil
		p.Pool = s.cfg.Fleet
		p.Spec = j.Spec.Encode()
		opts.Extra = p
	}
	j.prob = objective.NewCounter(prob)
	j.opts = opts
	j.eng = eng
	j.hvObs = &search.HypervolumeObserver{}
	if circuit {
		// The reported (CL, Power) plane in 0.1 mW·pF, the paper
		// hypervolume cmd/sacga prints for the same run.
		j.hvObs.Project, j.hvObs.Score = probspec.CircuitPoint, probspec.CircuitHV
	}
	if j.restoreCP != nil {
		cp := j.restoreCP
		j.restoreCP = nil
		return eng.Restore(j.prob, j.opts, cp)
	}
	return eng.Init(j.prob, j.opts)
}

// observe publishes the just-completed generation: the pooled hypervolume
// observer scores the live population, and the values — never the frame or
// the population it aliases — are copied into the event that leaves this
// goroutine (see eventFromFrame).
func (s *Server) observe(j *Job) {
	frame := search.Frame{Gen: j.eng.Generation(), Pop: j.eng.Population(), Evals: j.eng.Evals(), Engine: j.eng}
	j.hvObs.Observe(&frame)
	hv := j.hvObs.Last().HV
	// The trace is re-derived per generation for the stream; dropping it
	// keeps a million-generation tenant at O(1) observer memory.
	j.hvObs.Trace = j.hvObs.Trace[:0]
	j.publish(eventFromFrame(j.ID, &frame, hv))
}

// requeue pushes the job's next turn, or leaves it for the drain
// checkpointer when the queue has closed.
func (s *Server) requeue(j *Job) { s.queue.push(j) }

// finalizeFromEngine freezes a terminal state whose front comes from the
// still-valid engine and persists the result to <id>.done, which is what
// a restarted server serves instead of re-running the job; no final
// checkpoint is written.
func (s *Server) finalizeFromEngine(j *Job, state State, cause error) {
	front := snapshotFront(j.eng.Population().FirstFront())
	j.finalize(state, cause, front, j.eng.Generation(), j.eng.Evals())
	s.persistResult(j)
}

// maybeCheckpoint writes the periodic durable checkpoint.
func (s *Server) maybeCheckpoint(j *Job) {
	if s.cfg.Dir == "" {
		return
	}
	j.sinceCkpt++
	if j.sinceCkpt < s.cfg.CheckpointEvery {
		return
	}
	j.sinceCkpt = 0
	if err := s.checkpoint(j); err != nil {
		s.cfg.Log.Printf("serve: checkpoint %s: %v", j.ID, err)
	}
}

// checkpoint durably snapshots a job. Caller must hold the job's turn (or
// have drained the workers).
func (s *Server) checkpoint(j *Job) error {
	if s.cfg.Dir == "" || j.eng == nil {
		return nil
	}
	return search.SaveCheckpoint(s.ckptPath(j.ID), j.eng.Checkpoint())
}

func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+".ckpt")
}
