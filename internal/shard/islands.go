package shard

import (
	"errors"
	"fmt"
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
// as an in-process one does. Pool, EpochDeadline and HeartbeatTimeout are
// the fleet operator's: excluded from JSON.
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
	// Pool is the run's one worker source, and is required: a fleet.Pool
	// over child processes serving ServeWorker on their stdin/stdout
	// (fleet.ProcTransport), TCP worker daemons (fleet.TCPTransport,
	// cmd/sacgaw) or both. Its owner builds and closes it — the job server
	// shares one across tenants, cmd/sacga builds one per run — and the
	// run only draws sessions from it, stepping as many replicas at once
	// as it has workers. Results are bit-identical at every pool size and
	// mix: workers are stateless, so which worker steps which replica
	// cannot matter. Process-local by nature; excluded from both JSON and
	// the wire, so a job server's client can never point a run at a
	// command or an address of its own.
	Pool *fleet.Pool `json:"-"`
	// Spec names the problem for the workers' Build hook. The coordinator
	// treats it as opaque; it must describe the same problem the
	// coordinator engine was given (the mirrors use the local one).
	Spec string
	// EpochDeadline is the lease on one replica step round-trip: a worker
	// that has not replied within it is killed and the attempt retried
	// over a fresh connection (0 selects 5 min; negative is an error).
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
// worker of Params.Pool, and the replica's state stays on the coordinator
// as a checkpoint plus a local mirror engine restored from it.
//
// The coordinator is the single source of truth; workers are stateless
// executors. See the package comment for the fault model; the determinism
// contract is property-tested against the in-process scheduler in this
// package's chaos suite.
type Islands struct {
	sched.ParallelIslands
	p Params
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
	if e.p.Pool == nil || e.p.Pool.Size() == 0 {
		return fmt.Errorf("shard: Params.Pool is required, with at least one worker: it is the run's only worker source")
	}
	// Retries and leases belong to the remote replica's request ladder,
	// so the loop does not retry a replica step; it steps as many
	// replicas at once as the pool has workers.
	e.Ensemble(NameShardedIslands, ip, e.p.Pool.Size(), func(i int, local search.Engine) search.Engine {
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
	return e.ParallelIslands.Init(prob, opts)
}

// Restore implements search.Engine. The snapshot is a
// sched.IslandsSnapshot under this engine's name, so sharded runs
// checkpoint and resume with the standard persistence layer.
func (e *Islands) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	if err := e.prepare(opts); err != nil {
		return err
	}
	return e.ParallelIslands.Restore(prob, opts, cp)
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
// in-process replica loop's retries and over the same sched.StepRetries:
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
		sess := p.Pool.Acquire()
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

// Close does nothing: the run's workers belong to Params.Pool, and its
// owner closes it. It remains for callers that close the engine itself.
func (e *Islands) Close() {}
