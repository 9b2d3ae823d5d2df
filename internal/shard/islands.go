package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// NameShardedIslands is the coordinator engine's registry name.
const NameShardedIslands = "sharded-islands"

func init() {
	search.Register(NameShardedIslands, func() search.Engine { return new(Islands) })
	search.RegisterExtension(NameShardedIslands, func() any { return new(Params) })
}

// Params is the Islands extension struct carried by search.Options.Extra.
// The replica-ensemble knobs (Replicas, Algo, Extra, MigrationEvery,
// Migrants, Topology) mean exactly what they mean on sched.IslandsParams —
// the coordinator derives every replica's configuration with
// sched.ReplicaOptions, so a sharded run and an in-process run configured
// alike produce bit-identical results.
type Params struct {
	// Replicas is the number of engine replicas (default 4).
	Replicas int
	// Algo is the registry name of the replicated engine (default "nsga2").
	// The worker binary must link it.
	Algo string
	// Extra is the extension struct handed to every replica. Its concrete
	// type must be gob-registered (it crosses the process boundary inside
	// the Request); nil selects the algorithm's defaults.
	Extra any
	// MigrationEvery is the number of epochs between migration exchanges;
	// 0 selects the default (10), negative disables migration. Migration
	// runs ON THE COORDINATOR, against restored replica mirrors, at the
	// epoch barrier in replica-index order — identical to the in-process
	// scheduler.
	MigrationEvery int
	// Migrants is how many individuals each replica emits per exchange
	// (default 2).
	Migrants int
	// Topology is the exchange pattern (default sched.Ring).
	Topology sched.Topology
	// Procs bounds how many worker processes run at once (default
	// min(Replicas, GOMAXPROCS)). Results are bit-identical at every
	// setting — workers are stateless, so which process steps which
	// replica cannot matter.
	Procs int
	// WorkerArgv is the command line spawned for each worker process
	// (argv[0] = binary). The worker must run ServeWorker on its
	// stdin/stdout — e.g. `cmd/sacga -worker`, or a test binary re-exec.
	// At least one of WorkerArgv, Workers or Pool is required. Excluded
	// from JSON: a job server must never exec a client-supplied command.
	WorkerArgv []string `json:"-"`
	// WorkerEnv is appended to the inherited environment of each worker.
	WorkerEnv []string `json:"-"`
	// Workers lists TCP worker daemon addresses (cmd/sacgaw) to dial, in
	// place of — or mixed with — the WorkerArgv child processes. Each
	// address is one pool slot; a dropped daemon is redialed with backoff
	// and its in-flight step replayed elsewhere. Excluded from JSON for
	// the same reason as WorkerArgv: the fleet is the operator's to
	// configure, not the client's.
	Workers []string `json:"-"`
	// Pool, when non-nil, is an externally owned shared fleet (the job
	// server's): the run draws sessions from it instead of building its
	// own, and does NOT close it. WorkerArgv/Workers are ignored with it.
	// Process-local by nature; excluded from both JSON and the wire.
	Pool *fleet.Pool `json:"-"`
	// Spec names the problem for the workers' Build hook. The coordinator
	// treats it as opaque; it must describe the same problem the
	// coordinator engine was given (the mirrors use the local one).
	Spec string
	// EpochDeadline is the lease on one replica step round-trip: a worker
	// that has not replied within it is killed and the attempt retried
	// against a fresh process (0 = no lease). The process-level analogue
	// of sched.IslandsParams.StepTimeout.
	EpochDeadline time.Duration
	// HeartbeatTimeout kills a worker whose frames (heartbeats included)
	// stop for this long while a step is in flight — catching a wedged
	// process long before a generous lease expires (0 = disabled).
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the workers' heartbeat period while a step is in
	// flight, shipped inside each Request so both sides tune from one
	// knob — a WAN fleet wants a longer period than the LAN default. 0
	// keeps the worker's own default (DefaultHeartbeatEvery). Validated:
	// must be positive and shorter than HeartbeatTimeout and
	// EpochDeadline when those are set, or every step would be declared
	// dead before its first heartbeat.
	HeartbeatEvery time.Duration
	// Retries is how many extra attempts a failing replica step gets
	// before the replica is dropped at the epoch barrier (default 2,
	// negative = none). Transport faults (crash, lease, corrupt frame)
	// replay the last authoritative checkpoint — bit-identical, so a
	// transient fault is fully masked; engine faults ride the same retry
	// budget with quarantine-state adoption, like the in-process
	// scheduler.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 retries immediately.
	RetryBackoff time.Duration
	// ShutdownGrace bounds a worker's clean exit (stdin close → EOF)
	// before it is killed (default 2s).
	ShutdownGrace time.Duration
}

func (p *Params) normalize() error {
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
	if p.Topology == "" {
		p.Topology = sched.Ring
	}
	if p.Procs <= 0 {
		p.Procs = min(p.Replicas, runtime.GOMAXPROCS(0))
	}
	if p.Procs > p.Replicas {
		p.Procs = p.Replicas
	}
	if p.Retries == 0 {
		p.Retries = 2
	}
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.ShutdownGrace <= 0 {
		p.ShutdownGrace = 2 * time.Second
	}
	// The liveness knobs are validated, not clamped: a nonsensical lease
	// configuration (negative durations, a heartbeat period that cannot
	// fit inside the deadlines watching it) silently degrades into
	// spurious worker kills, so it must fail loudly at Init.
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"EpochDeadline", p.EpochDeadline},
		{"HeartbeatTimeout", p.HeartbeatTimeout},
		{"HeartbeatEvery", p.HeartbeatEvery},
		{"RetryBackoff", p.RetryBackoff},
	} {
		if d.v < 0 {
			return fmt.Errorf("shard: Params.%s is %v, must be positive (or 0 for the default)", d.name, d.v)
		}
	}
	if p.HeartbeatEvery > 0 {
		if p.HeartbeatTimeout > 0 && p.HeartbeatEvery >= p.HeartbeatTimeout {
			return fmt.Errorf("shard: Params.HeartbeatEvery %v must be shorter than HeartbeatTimeout %v", p.HeartbeatEvery, p.HeartbeatTimeout)
		}
		if p.EpochDeadline > 0 && p.HeartbeatEvery >= p.EpochDeadline {
			return fmt.Errorf("shard: Params.HeartbeatEvery %v must be shorter than EpochDeadline %v", p.HeartbeatEvery, p.EpochDeadline)
		}
	}
	return nil
}

// Islands shards a sched.ParallelIslands-shaped replica ensemble across
// worker OS processes. It implements search.Engine (registered as
// "sharded-islands"): one Step is one epoch — every live replica advances
// one generation in some worker process — with migration, pooling, budget
// enforcement and degradation applied by the coordinator at the epoch
// barrier, in replica-index order.
//
// The coordinator is the single source of truth: it holds every replica's
// state as a sealed checkpoint (authoritative bytes, in the
// search.SaveCheckpoint format) plus the ensemble accounting. Workers are
// stateless executors. See the package comment for the fault model; the
// determinism contract is property-tested against the in-process scheduler
// in this package's chaos suite.
//
// An Islands engine owns OS processes; call Close (or drive it to Done,
// which closes them implicitly) to reap the workers.
type Islands struct {
	prob objective.Problem
	opts search.Options
	p    Params

	// Authoritative per-replica state: sealed bytes, the decoded form
	// (replaced wholesale on adoption, never mutated), cumulative
	// evaluation counts, and generation-budget completion.
	ckpts   [][]byte
	cps     []*search.Checkpoint
	evals   []int64
	repDone []bool

	epoch int
	reps  sched.ReplicaSet

	// Mirrors are in-process replica engines restored on demand from the
	// authoritative checkpoints — the coordinator's window into replica
	// populations for migration, pooling and observation. Never stepped.
	mirrors      []search.Engine
	mirrorsFresh bool

	pooled ga.Population
	final  bool

	// pool is where step dispatch draws worker connections from. Owned
	// (built from WorkerArgv/Workers and closed with the engine) unless
	// Params.Pool supplied a shared one.
	pool     *fleet.Pool
	ownsPool bool
	closed   bool
}

// stepResult is one replica's dispatch outcome for an epoch, written by
// index from the slot goroutines and consumed at the barrier.
type stepResult struct {
	err error // nil on success; the drop cause otherwise
	// Latest adopted state — set on success, and on failures whose
	// attempts completed generations under quarantine (the coordinator
	// keeps a dropped replica's final valid state, like the in-process
	// scheduler keeps a dead replica's engine).
	ckpt []byte
	cp   *search.Checkpoint
	done bool
}

// Name implements search.Engine.
func (e *Islands) Name() string { return NameShardedIslands }

// prepare applies the option/problem wiring shared by Init and Restore.
func (e *Islands) prepare(prob objective.Problem, opts search.Options) error {
	p, err := search.Extension[Params](opts)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	opts.Normalize()
	e.p = *p
	if err := e.p.normalize(); err != nil {
		return err
	}
	if e.p.Pool == nil && len(e.p.WorkerArgv) == 0 && len(e.p.Workers) == 0 {
		return fmt.Errorf("shard: a worker source is required: Params.WorkerArgv (child processes), Params.Workers (TCP daemons) or Params.Pool (shared fleet)")
	}
	e.opts = opts
	e.prob = prob
	e.epoch = 0
	e.final = false
	e.closed = false
	n := e.p.Replicas
	e.ckpts = make([][]byte, n)
	e.cps = make([]*search.Checkpoint, n)
	e.evals = make([]int64, n)
	e.repDone = make([]bool, n)
	e.reps.Reset(n)
	e.mirrors = nil
	e.mirrorsFresh = false
	e.pooled = make(ga.Population, 0, e.opts.PopSize)
	if e.p.Pool != nil {
		e.pool, e.ownsPool = e.p.Pool, false
		return nil
	}
	// Build the run's own pool: Procs child-process slots (when a worker
	// command line is configured) plus one slot per TCP daemon address.
	hello := fleet.HandshakeConfig{Problem: e.p.Spec}
	var transports []fleet.Transport
	if len(e.p.WorkerArgv) > 0 {
		for s := 0; s < e.p.Procs; s++ {
			transports = append(transports, &fleet.ProcTransport{
				Argv:  e.p.WorkerArgv,
				Env:   e.p.WorkerEnv,
				Grace: e.p.ShutdownGrace,
				Hello: hello,
			})
		}
	}
	for _, addr := range e.p.Workers {
		transports = append(transports, &fleet.TCPTransport{Address: addr, Hello: hello})
	}
	e.pool, e.ownsPool = fleet.NewPool(transports...), true
	return nil
}

// replicaOptions derives replica i's configuration — the same call the
// in-process scheduler makes, which is what the bit-identity rests on.
func (e *Islands) replicaOptions(i int) search.Options {
	return sched.ReplicaOptions(e.opts, e.p.Replicas, i, e.p.Extra)
}

// Init implements search.Engine: every replica's generation-zero state is
// created in a worker process. Unlike Step, replica failures here are
// fatal (after transport retries) — matching the in-process scheduler,
// whose Init aborts on the first replica error.
func (e *Islands) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	results := e.dispatch(true)
	for i := range results {
		if results[i].err != nil {
			e.Close()
			return fmt.Errorf("shard: replica %d init: %w", i, results[i].err)
		}
		e.adopt(i, &results[i])
	}
	return nil
}

// adopt installs one replica's new authoritative state.
func (e *Islands) adopt(i int, r *stepResult) {
	if r.cp == nil {
		return
	}
	e.ckpts[i] = r.ckpt
	e.cps[i] = r.cp
	e.evals[i] = r.cp.Evals
	e.repDone[i] = r.done
	e.mirrorsFresh = false
}

// Step implements search.Engine: one epoch. Every live replica's sealed
// checkpoint is shipped to a worker, stepped one generation, and shipped
// back; the barrier then applies drops, migration and the budget check in
// replica-index order — the same reduction order as the in-process
// scheduler, so degradation is deterministic at any process count.
func (e *Islands) Step() error {
	if e.Done() {
		return nil
	}
	results := e.dispatch(false)
	for i := range results { // epoch barrier: adoption + drops in replica-index order
		r := &results[i]
		if r.cp != nil {
			e.adopt(i, r)
		}
		if r.err != nil {
			e.reps.Drop(i, r.err, false) // process isolation: never poisoned
		}
	}
	if e.reps.AllDead() {
		if err := e.finalize(); err != nil {
			return err
		}
		return e.reps.TakeErr(e.Name())
	}
	e.epoch++
	if e.p.MigrationEvery > 0 && e.epoch%e.p.MigrationEvery == 0 && !e.done() {
		if err := e.migrate(); err != nil {
			return err
		}
	}
	if e.done() {
		if err := e.finalize(); err != nil {
			return err
		}
		return e.reps.TakeErr(e.Name())
	}
	return nil
}

// dispatch runs one epoch's worth of replica requests across the pool:
// each dispatch goroutine pulls replica indices from a shared cursor and
// checks a worker out of the pool per attempt. Results are written by
// index — which worker executes which replica cannot matter, because
// workers are stateless. The goroutine count is bounded by the pool size,
// so a goroutine holding no session never blocks an exclusive pool
// (shared pools may make it wait its turn — that is the shared budget).
func (e *Islands) dispatch(init bool) []stepResult {
	n := e.p.Replicas
	results := make([]stepResult, n)
	var live []int
	for i := 0; i < n; i++ {
		if init || (!e.reps.Dead(i) && !e.repDone[i]) {
			live = append(live, i)
		}
	}
	workers := min(e.pool.Size(), len(live))
	if workers == 0 {
		return results
	}
	var next atomic.Int64
	run := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(live) {
				return
			}
			i := live[k]
			results[i] = e.stepReplica(i, init)
		}
	}
	if workers == 1 {
		run()
		return results
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for s := 1; s < workers; s++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return results
}

// stepReplica drives one replica's step to success or retry exhaustion,
// checking a worker out of the pool for each attempt. The retry ladder,
// in parity with the in-process sched.StepWithRetry:
//
//   - transport faults (dial failure, crash/EOF, lease or heartbeat
//     expiry, corrupt frame, desynced stream) taint the connection: it is
//     killed, and the SAME request — same checkpoint — is replayed over a
//     fresh one after the backoff, on whichever pool worker is healthiest
//     (a dead machine degrades to the survivors, not to a dropped
//     replica). A replay is bit-identical to the lost step, so a fault
//     that stops recurring leaves no trace in the result.
//   - engine faults (the reply carries Err) adopt the reply's checkpoint
//     when present — engines complete their generation before reporting,
//     so each retry is a fresh generation, exactly like retrying a
//     quarantining in-process engine. During Init they are fatal
//     immediately, matching the in-process scheduler's fail-fast Init.
//   - a *fleet.VersionError is permanent by construction — every redial
//     of the mismatched binary reproduces it — so it fails the replica
//     without burning the retry budget.
func (e *Islands) stepReplica(i int, init bool) stepResult {
	req := &Request{
		Replica:        i,
		Epoch:          e.epoch,
		Init:           init,
		Algo:           e.p.Algo,
		Spec:           e.p.Spec,
		Opts:           ToWire(e.replicaOptions(i)),
		HeartbeatEvery: e.p.HeartbeatEvery,
	}
	if !init {
		req.Ckpt = e.ckpts[i]
	}
	var res stepResult
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > e.p.Retries {
			res.err = lastErr
			return res
		}
		if attempt > 0 && e.p.RetryBackoff > 0 {
			time.Sleep(e.p.RetryBackoff << (attempt - 1))
		}
		req.Attempt = attempt
		sess := e.pool.Acquire()
		if sess == nil {
			res.err = fmt.Errorf("shard: replica %d epoch %d: worker pool closed", i, req.Epoch)
			return res
		}
		link, err := sess.Link() // dial failures are recorded on the worker by the session
		if err != nil {
			sess.Release()
			var ve *fleet.VersionError
			if errors.As(err, &ve) {
				res.err = fmt.Errorf("shard: replica %d: %w", i, err)
				return res
			}
			lastErr = fmt.Errorf("shard: replica %d epoch %d attempt %d: %w", i, req.Epoch, attempt, err)
			continue
		}
		reply, err := roundTrip(link, req, e.p.EpochDeadline, e.p.HeartbeatTimeout)
		if err != nil {
			sess.Fail(err)
			sess.Release()
			lastErr = fmt.Errorf("shard: replica %d epoch %d attempt %d: %w", i, req.Epoch, attempt, err)
			continue
		}
		if reply.Err != "" {
			sess.Served() // an engine fault is the replica's, not the transport's
			sess.Release()
			lastErr = fmt.Errorf("shard: replica %d epoch %d attempt %d: %s", i, req.Epoch, attempt, reply.Err)
			if len(reply.Ckpt) > 0 {
				if cp, derr := search.DecodeCheckpoint(fmt.Sprintf("shard: replica %d reply", i), reply.Ckpt); derr == nil {
					res.ckpt, res.cp, res.done = reply.Ckpt, cp, reply.Done
					req.Ckpt, req.Init = reply.Ckpt, false // retry from the advanced state
				}
			}
			if init {
				res.err = lastErr
				return res
			}
			continue
		}
		cp, derr := search.DecodeCheckpoint(fmt.Sprintf("shard: replica %d reply", i), reply.Ckpt)
		if derr != nil {
			// The frame CRC passed but the checkpoint inside is corrupt:
			// do not adopt; the connection is suspect.
			sess.Fail(derr)
			sess.Release()
			lastErr = derr
			continue
		}
		sess.Served()
		sess.Release()
		res.ckpt, res.cp, res.done, res.err = reply.Ckpt, cp, reply.Done, nil
		return res
	}
}

// migrate refreshes the replica mirrors and runs one deterministic
// exchange over the live ones — sched.Migrate, the same code the
// in-process scheduler runs — then reseals the mutated mirrors as the new
// authoritative checkpoints.
func (e *Islands) migrate() error {
	if err := e.refreshMirrors(); err != nil {
		return err
	}
	var live []int
	for i := 0; i < e.p.Replicas; i++ {
		if !e.reps.Dead(i) {
			live = append(live, i)
		}
	}
	sched.Migrate(e.mirrors, live, e.p.Topology, e.p.Migrants)
	for _, i := range live {
		cp := e.mirrors[i].Checkpoint()
		data, err := search.EncodeCheckpoint(cp)
		if err != nil {
			return fmt.Errorf("shard: reseal replica %d after migration: %w", i, err)
		}
		e.cps[i] = cp
		e.ckpts[i] = data
	}
	return nil
}

// refreshMirrors rebuilds the in-process replica mirrors from the
// authoritative checkpoints. Restore never re-evaluates, so mirrors cost
// no budget; they are rebuilt only when stale and needed (migration,
// observation, pooling).
func (e *Islands) refreshMirrors() error {
	if e.mirrorsFresh {
		return nil
	}
	n := e.p.Replicas
	e.mirrors = make([]search.Engine, n)
	for i := 0; i < n; i++ {
		if e.cps[i] == nil {
			return fmt.Errorf("shard: replica %d has no checkpoint to mirror", i)
		}
		eng, err := search.New(e.p.Algo)
		if err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		if err := eng.Restore(objective.NewCounter(e.prob), e.replicaOptions(i), e.cps[i]); err != nil {
			return fmt.Errorf("shard: mirror replica %d: %w", i, err)
		}
		e.mirrors[i] = eng
	}
	e.mirrorsFresh = true
	return nil
}

// poolView refreshes the mirrors and pools them in replica-index order.
// Dead replicas contribute their last-good generation, like the in-process
// scheduler's dead-but-valid engines; no replica is ever poisoned here.
func (e *Islands) poolView() (ga.Population, error) {
	if err := e.refreshMirrors(); err != nil {
		return nil, err
	}
	e.pooled = sched.PoolPopulations(e.pooled, e.mirrors, nil)
	return e.pooled, nil
}

// totalEvals is the ensemble's cumulative evaluation count — the sum of
// every replica's own counter, identical to the in-process scheduler's
// shared counter because child evaluations are disjoint.
func (e *Islands) totalEvals() int64 {
	var total int64
	for _, v := range e.evals {
		total += v
	}
	return total
}

// done reports budget exhaustion or completion of every live replica.
func (e *Islands) done() bool {
	if e.opts.MaxEvals > 0 && e.totalEvals() >= e.opts.MaxEvals {
		return true
	}
	for i := 0; i < e.p.Replicas; i++ {
		if !e.reps.Dead(i) && !e.repDone[i] {
			return false
		}
	}
	return true
}

// Done implements search.Engine.
func (e *Islands) Done() bool { return e.final || e.done() }

// Generation implements search.Engine: epochs executed.
func (e *Islands) Generation() int { return e.epoch }

// Evals implements search.Engine.
func (e *Islands) Evals() int64 { return e.totalEvals() }

// Population implements search.Engine: the pooled view across replica
// mirrors, globally ranked once the run is done. Invalidated by Step.
func (e *Islands) Population() ga.Population {
	if e.final {
		return e.pooled
	}
	pop, err := e.poolView()
	if err != nil {
		return nil
	}
	return pop
}

// finalize pools the mirrors, assigns global ranks — the one pooled global
// competition — and reaps the worker processes.
func (e *Islands) finalize() error {
	pop, err := e.poolView()
	if err != nil {
		e.Close()
		return err
	}
	pop.AssignRanksAndCrowding()
	e.final = true
	e.Close()
	return nil
}

// Checkpoint implements search.Engine: the composite snapshot is a
// sched.IslandsSnapshot — the same shape as the in-process scheduler's,
// under this engine's own Algo name — so sharded runs checkpoint and
// resume with the standard persistence layer.
func (e *Islands) Checkpoint() *search.Checkpoint {
	sn := &sched.IslandsSnapshot{
		Inner:    make([]*search.Checkpoint, e.p.Replicas),
		Dead:     e.reps.DeadFlags(),
		Poisoned: e.reps.PoisonedFlags(),
	}
	copy(sn.Inner, e.cps)
	return &search.Checkpoint{Algo: e.Name(), Gen: e.epoch, Evals: e.totalEvals(), State: sn}
}

// Restore implements search.Engine.
func (e *Islands) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if cp.Algo != e.Name() {
		return fmt.Errorf("shard: checkpoint is for %q", cp.Algo)
	}
	sn, ok := cp.State.(*sched.IslandsSnapshot)
	if !ok {
		return fmt.Errorf("shard: checkpoint state is %T, want *sched.IslandsSnapshot", cp.State)
	}
	if err := e.prepare(prob, opts); err != nil {
		return err
	}
	if len(sn.Inner) != e.p.Replicas {
		return fmt.Errorf("shard: checkpoint has %d replicas, options configure %d", len(sn.Inner), e.p.Replicas)
	}
	e.epoch = cp.Gen
	e.reps.RestoreState(e.p.Replicas, sn.Dead, sn.Poisoned)
	for i, inner := range sn.Inner {
		if inner == nil {
			return fmt.Errorf("shard: checkpoint replica %d is empty", i)
		}
		data, err := search.EncodeCheckpoint(inner)
		if err != nil {
			return fmt.Errorf("shard: reseal checkpoint replica %d: %w", i, err)
		}
		e.cps[i] = inner
		e.ckpts[i] = data
		e.evals[i] = inner.Evals
	}
	if err := e.refreshMirrors(); err != nil {
		return err
	}
	for i, m := range e.mirrors {
		e.repDone[i] = m.Done()
	}
	if e.done() {
		return e.finalize()
	}
	return nil
}

// Close reaps the run's workers: an owned pool is closed (clean
// stdin-close shutdown for child processes, kill after ShutdownGrace;
// connection close for TCP daemons, which outlive their connections). A
// shared Params.Pool is left untouched — its owner closes it. Idempotent;
// called implicitly when the run finalizes. Callers abandoning an
// unfinished engine must call it.
func (e *Islands) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.ownsPool && e.pool != nil {
		e.pool.Close()
	}
}
