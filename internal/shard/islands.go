package shard

import (
	"errors"
	"fmt"
	"runtime"
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
// Migrants) mean exactly what they mean on sched.IslandsParams, defaults
// included — the coordinator hands them to the same replica loop — so a
// sharded run and an in-process run configured alike produce bit-identical
// results. A failing replica step gets sched.StepRetries extra attempts,
// as an in-process one does. Procs, EpochDeadline and HeartbeatTimeout are
// the fleet operator's, like the worker fields: excluded from JSON.
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
	// 0 selects the default (10), negative disables migration (and with
	// it the search.Migrator requirement on Algo). Migration runs ON THE
	// COORDINATOR, against restored replica mirrors, at the epoch barrier
	// in replica-index order — identical to the in-process scheduler.
	MigrationEvery int
	// Migrants is how many individuals each replica emits per exchange
	// (default 2).
	Migrants int
	// Procs bounds how many worker processes run at once (default
	// min(Replicas, GOMAXPROCS)). Results are bit-identical at every
	// setting — workers are stateless, so which process steps which
	// replica cannot matter.
	Procs int `json:"-"`
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
	// against a fresh process (0 selects 5 min; negative is an error).
	// The process-level analogue of sched.IslandsParams.StepTimeout.
	EpochDeadline time.Duration `json:"-"`
	// HeartbeatTimeout kills a worker whose frames (heartbeats included)
	// stop for this long while a step is in flight — catching a wedged
	// process, or a stopped one whose connection stays open, long before
	// the lease expires (0 selects 15 s; negative is an error). Workers
	// heartbeat at their own WorkerConfig.HeartbeatEvery, which must stay
	// under it.
	HeartbeatTimeout time.Duration `json:"-"`
}

// The liveness defaults: the lease on one step round-trip and the gap
// allowed between a stepping worker's frames.
const (
	defaultEpochDeadline    = 5 * time.Minute
	defaultHeartbeatTimeout = 15 * time.Second
)

// normalize applies the defaults in place and returns the ensemble's
// sched.IslandsParams, normalized by sched itself. The liveness knobs are
// validated, not clamped: a negative lease or gap would declare every
// step dead, so it must fail loudly at Init.
func (p *Params) normalize() (sched.IslandsParams, error) {
	ip := sched.IslandsParams{Replicas: p.Replicas, Algo: p.Algo, Extra: p.Extra,
		MigrationEvery: p.MigrationEvery, Migrants: p.Migrants}
	ip.Normalize()
	p.Replicas, p.Algo, p.MigrationEvery, p.Migrants = ip.Replicas, ip.Algo, ip.MigrationEvery, ip.Migrants
	if p.Procs <= 0 {
		p.Procs = runtime.GOMAXPROCS(0)
	}
	p.Procs = min(p.Procs, p.Replicas)
	for _, d := range []struct {
		name string
		v    *time.Duration
		def  time.Duration
	}{
		{"EpochDeadline", &p.EpochDeadline, defaultEpochDeadline},
		{"HeartbeatTimeout", &p.HeartbeatTimeout, defaultHeartbeatTimeout},
	} {
		if *d.v < 0 {
			return ip, fmt.Errorf("shard: Params.%s is %v, must be positive (or 0 for %v)", d.name, *d.v, d.def)
		}
		if *d.v == 0 {
			*d.v = d.def
		}
	}
	return ip, nil
}

// Islands shards a sched.ParallelIslands replica ensemble across worker
// OS processes. It implements search.Engine (registered as
// "sharded-islands") by running ParallelIslands' own epoch loop — the
// barrier, drops, migration, budget, pooling and checkpoints are that
// loop's — over remote replicas: each replica generation runs in some
// worker process, and the replica's state stays on the coordinator as a
// checkpoint plus a local mirror engine restored from it.
//
// The coordinator is the single source of truth; workers are stateless
// executors. See the package comment for the fault model; the determinism
// contract is property-tested against the in-process scheduler in this
// package's chaos suite.
//
// An Islands engine owns OS processes; call Close (or drive it to Done,
// which closes them implicitly) to reap the workers.
type Islands struct {
	sched.ParallelIslands
	p Params

	// pool is where replica requests draw worker connections from. Owned
	// (built from WorkerArgv/Workers and closed with the engine) unless
	// Params.Pool supplied a shared one.
	pool     *fleet.Pool
	ownsPool bool
	closed   bool
}

// Name implements search.Engine.
func (e *Islands) Name() string { return NameShardedIslands }

// prepare applies the option wiring shared by Init and Restore and points
// the embedded loop at remote replicas.
func (e *Islands) prepare(opts search.Options) error {
	p, err := search.Extension[Params](opts)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	e.p = *p
	ip, err := e.p.normalize()
	if err != nil {
		return err
	}
	if e.p.Pool == nil && len(e.p.WorkerArgv) == 0 && len(e.p.Workers) == 0 {
		return fmt.Errorf("shard: a worker source is required: Params.WorkerArgv (child processes), Params.Workers (TCP daemons) or Params.Pool (shared fleet)")
	}
	e.closed = false
	if e.p.Pool != nil {
		e.pool, e.ownsPool = e.p.Pool, false
	} else {
		// Build the run's own pool: Procs child-process slots (when a
		// worker command line is configured) plus one slot per TCP daemon
		// address.
		hello := fleet.HandshakeConfig{Problem: e.p.Spec}
		var transports []fleet.Transport
		if len(e.p.WorkerArgv) > 0 {
			for s := 0; s < e.p.Procs; s++ {
				transports = append(transports, &fleet.ProcTransport{
					Argv:  e.p.WorkerArgv,
					Env:   e.p.WorkerEnv,
					Hello: hello,
				})
			}
		}
		for _, addr := range e.p.Workers {
			transports = append(transports, &fleet.TCPTransport{Address: addr, Hello: hello})
		}
		e.pool, e.ownsPool = fleet.NewPool(transports...), true
	}
	// Retries and leases belong to the remote replica's request ladder,
	// so the loop neither retries nor guards a replica step; it steps as
	// many replicas at once as the pool has workers.
	ip.StepWorkers = e.pool.Size()
	e.Ensemble(NameShardedIslands, ip, func(i int, local search.Engine) search.Engine {
		return &remote{Engine: local, c: e, i: i}
	})
	return nil
}

// Init implements search.Engine: every replica's generation-zero state is
// created in a worker process. Unlike Step, replica failures here are
// fatal (after transport retries), as in the in-process scheduler.
func (e *Islands) Init(prob objective.Problem, opts search.Options) error {
	if err := e.prepare(opts); err != nil {
		return err
	}
	return e.settle(e.ParallelIslands.Init(prob, opts))
}

// Step implements search.Engine: one epoch of the embedded loop.
func (e *Islands) Step() error { return e.settle(e.ParallelIslands.Step()) }

// Restore implements search.Engine. The snapshot is a
// sched.IslandsSnapshot under this engine's name, so sharded runs
// checkpoint and resume with the standard persistence layer.
func (e *Islands) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if err := e.prepare(opts); err != nil {
		return err
	}
	return e.settle(e.ParallelIslands.Restore(prob, opts, cp))
}

// settle reaps the workers once the run has failed or finished.
func (e *Islands) settle(err error) error {
	if err != nil || e.Done() {
		e.Close()
	}
	return err
}

// remote is one replica of a sharded ensemble, as the embedded loop sees
// it: a search.Engine and search.Migrator whose generations run in worker
// processes. The embedded engine is the local mirror, restored from the
// last adopted checkpoint and never stepped; it answers Done, Evals,
// Generation, Population and the migration calls. Each remote touches only
// its own fields, so the loop may step replicas concurrently.
type remote struct {
	search.Engine
	c    *Islands
	i    int
	prob objective.Problem // the mirror's problem: a restore never evaluates
	opts search.Options
	cp   *search.Checkpoint // the authoritative state, which the next request ships
}

// Init implements search.Engine: the replica's generation zero is created
// in a worker process, from its share of the seed population.
func (r *remote) Init(prob objective.Problem, opts search.Options) error {
	r.prob, r.opts = prob, opts
	req := &Request{Init: true}
	if len(opts.Initial) > 0 {
		req.Initial = ga.PackPopulation(opts.Initial)
	}
	return r.request(req)
}

// Step implements search.Engine: one generation, in a worker process.
func (r *remote) Step() error { return r.request(&Request{State: r.cp}) }

// Restore implements search.Engine: cp becomes the authoritative state.
func (r *remote) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	r.prob, r.opts = prob, opts
	return r.adopt(cp)
}

// Checkpoint implements search.Engine: the authoritative state, as
// adopted (never mutated; replaced wholesale).
func (r *remote) Checkpoint() *search.Checkpoint { return r.cp }

// Emigrants implements search.Migrator on the mirror.
func (r *remote) Emigrants(k int) ga.Population { return r.Engine.(search.Migrator).Emigrants(k) }

// Immigrate implements search.Migrator: the migrants join the mirror, and
// the mirror's checkpoint becomes the state the next request ships.
func (r *remote) Immigrate(migrants ga.Population) {
	r.Engine.(search.Migrator).Immigrate(migrants)
	r.cp = r.Engine.Checkpoint()
}

// adopt installs cp as the authoritative state and restores a fresh mirror
// from it. cp is never mutated afterwards: the mirror's restore copies it.
func (r *remote) adopt(cp *search.Checkpoint) error {
	mirror, err := search.New(r.c.p.Algo)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := mirror.Restore(r.prob, r.opts, cp); err != nil {
		return fmt.Errorf("shard: mirror replica %d: %w", r.i, err)
	}
	r.Engine, r.cp = mirror, cp
	return nil
}

// request ships one Init or Step request through the retry ladder and
// adopts the latest state a worker returned, even when the step failed in
// the end: the loop keeps a dropped replica's last valid state, and pools
// it, like a dead in-process replica.
func (r *remote) request(req *Request) error {
	c := r.c
	req.Replica, req.Epoch, req.Algo, req.Spec = r.i, c.Generation(), c.p.Algo, c.p.Spec
	req.Opts = r.opts
	req.Opts.Initial = nil // packed in req.Initial on Init; a step never reads it
	cp, err := r.ladder(req)
	if cp != nil {
		if aerr := r.adopt(cp); err == nil {
			err = aerr
		}
	}
	return err
}

// ladder drives one request to success or retry exhaustion, checking a
// worker out of the pool for each attempt, and returns the latest state a
// worker returned (nil when none did). The retry ladder, in parity with the
// in-process sched.StepWithRetry and over the same sched.StepRetries:
//
//   - transport faults (dial failure, crash/EOF, lease or heartbeat
//     expiry, corrupt frame or payload, desynced stream, a clean reply
//     with no state) taint the connection: it is killed, and the SAME
//     request — same checkpoint — is replayed at once over a fresh one,
//     on whichever pool worker is healthiest (a dead machine degrades to
//     the survivors, not to a dropped replica). A replay is
//     bit-identical to the lost step, so a fault that stops recurring
//     leaves no trace in the result.
//   - engine faults (the reply carries Err) adopt the reply's checkpoint
//     when present — engines complete their generation before reporting,
//     so each retry is a fresh generation, exactly like retrying a
//     quarantining in-process engine. During Init they are fatal
//     immediately, matching the in-process scheduler's fail-fast Init.
//   - a *fleet.VersionError is permanent by construction — every redial
//     of the mismatched binary reproduces it — so it fails the replica
//     without burning the retry budget.
func (r *remote) ladder(req *Request) (cp *search.Checkpoint, err error) {
	p, init := &r.c.p, req.Init
	for attempt := 0; attempt <= sched.StepRetries; attempt++ {
		req.Attempt = attempt
		sess := r.c.pool.Acquire()
		if sess == nil {
			return cp, fmt.Errorf("shard: replica %d epoch %d: worker pool closed", r.i, req.Epoch)
		}
		link, lerr := sess.Link() // dial failures are recorded on the worker by the session
		if lerr != nil {
			sess.Release()
			var ve *fleet.VersionError
			if errors.As(lerr, &ve) {
				return cp, fmt.Errorf("shard: replica %d: %w", r.i, lerr)
			}
			err = fmt.Errorf("shard: replica %d epoch %d attempt %d: %w", r.i, req.Epoch, attempt, lerr)
			continue
		}
		reply, rerr := roundTrip(link, req, p.EpochDeadline, p.HeartbeatTimeout)
		if rerr != nil {
			sess.Fail(rerr)
			sess.Release()
			err = fmt.Errorf("shard: replica %d epoch %d attempt %d: %w", r.i, req.Epoch, attempt, rerr)
			continue
		}
		if reply.Err != "" {
			sess.Served() // an engine fault is the replica's, not the transport's
			sess.Release()
			err = fmt.Errorf("shard: replica %d epoch %d attempt %d: %s", r.i, req.Epoch, attempt, reply.Err)
			if reply.State != nil {
				cp = reply.State
				req.State = reply.State // retry from the advanced state
			}
			if init {
				return cp, err
			}
			continue
		}
		sess.Served()
		sess.Release()
		return reply.State, nil
	}
	return cp, err
}

// Close reaps the run's workers: an owned pool is closed (clean
// stdin-close shutdown for child processes, kill after a 2 s grace;
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
