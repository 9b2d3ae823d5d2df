// The process-level chaos suite: the cross-process coordinator is run
// against real worker OS processes (this test binary re-execed, see
// TestMain) that are SIGKILLed, wedged, or corrupt their reply frames on
// cue — and every outcome is compared BIT-IDENTICALLY against the
// in-process sched.ParallelIslands scheduler, which is the package's
// determinism contract: sharding, process count, and transient faults must
// all be invisible in the result.
package shard

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sacga/internal/benchfn"
	"sacga/internal/fault"
	"sacga/internal/fleet"
	"sacga/internal/ga"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/rng"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// TestMain doubles as the worker binary: when SHARD_WORKER=1 the process
// serves the shard protocol on stdin/stdout instead of running tests —
// the standard re-exec harness, so the chaos suite spawns real OS
// processes without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("SHARD_WORKER") == "1" {
		cfg := WorkerConfig{
			Build:          buildTestProblem,
			HeartbeatEvery: 50 * time.Millisecond,
		}
		if fp := os.Getenv("SHARD_BUILD_FP"); fp != "" {
			cfg.Handshake.Build = fp // advertise a fake fingerprint: the mismatch tests run one binary
		}
		applyChaosEnv(&cfg, func() { os.Exit(1) })
		if err := ServeWorker(os.Stdin, os.Stdout, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("SHARD_TCP_WORKER") == "1" {
		runTCPChaosWorker() // never returns; see tcp_chaos_test.go
	}
	os.Exit(m.Run())
}

func buildTestProblem(spec string) (objective.Problem, error) {
	if spec != "zdt1" {
		return nil, fmt.Errorf("unknown test problem %q", spec)
	}
	return benchfn.ZDT1(6), nil
}

// applyChaosEnv arms the worker's chaos hooks from SHARD_CHAOS:
//
//	<mode>:<replica>:<epoch>:<maxAttempt>
//
// where mode is kill (SIGKILL self before the step — a worker dying
// mid-epoch), wedge (block forever; the coordinator's heartbeat/lease
// machinery must reclaim it), stall (sleep inside every evaluation of the
// step while heartbeats keep flowing, so only the lease can end it),
// corrupt (flip one bit of the sealed reply
// frame, through fault.FlipBit on a scratch file — the transport-corruption
// attack), or drop (truncate the sealed reply through fault.Truncate and
// then end the stream — a connection torn mid-frame; endStream supplies
// what "end the stream" means: os.Exit for the stdio worker, closing just
// the one connection for the TCP daemon). The fault fires for the matching
// replica and epoch on attempts 0..maxAttempt — a respawned worker
// re-reads the same env, so attempt gating is what separates a transient
// fault from a permanent one.
func applyChaosEnv(cfg *WorkerConfig, endStream func()) {
	spec := os.Getenv("SHARD_CHAOS")
	if spec == "" {
		return
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		fmt.Fprintf(os.Stderr, "shard worker: bad SHARD_CHAOS %q\n", spec)
		os.Exit(1)
	}
	mode := parts[0]
	replica, _ := strconv.Atoi(parts[1])
	epoch, _ := strconv.Atoi(parts[2])
	maxAttempt, _ := strconv.Atoi(parts[3])
	match := func(info StepInfo) bool {
		return !info.Init && info.Replica == replica && info.Epoch == epoch && info.Attempt <= maxAttempt
	}
	switch mode {
	case "kill":
		cfg.OnStep = func(info StepInfo) {
			if match(info) {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	case "wedge":
		cfg.OnStep = func(info StepInfo) {
			if match(info) {
				// Effectively frozen: no reply, no heartbeats. (A bare
				// select{} would trip the runtime's deadlock detector and
				// crash the process instead of wedging it.)
				time.Sleep(24 * time.Hour)
			}
		}
	case "stall":
		// The worker's Build hook wraps every problem, and a matched step
		// switches the wrapper on for its evaluations: the step runs long
		// past the lease, but the heartbeat goroutine stays alive.
		var stalled atomic.Bool
		cfg.OnStep = func(info StepInfo) { stalled.Store(match(info)) }
		build := cfg.Build
		cfg.Build = func(spec string) (objective.Problem, error) {
			prob, err := build(spec)
			return &stallProblem{Problem: prob, stalled: &stalled}, err
		}
	case "corrupt":
		cfg.TransformReply = func(info StepInfo, frame []byte) []byte {
			if !match(info) {
				return frame
			}
			return flipFrameBit(frame)
		}
	case "drop":
		cfg.TransformReply = func(info StepInfo, frame []byte) []byte {
			if !match(info) {
				return frame
			}
			return truncateFrame(frame)
		}
		cfg.AfterReply = func(info StepInfo) {
			if match(info) {
				endStream() // the truncated reply is the stream's last bytes
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "shard worker: unknown SHARD_CHAOS mode %q\n", mode)
		os.Exit(1)
	}
}

// stallProblem sleeps inside each evaluation while stalled is set, and
// evaluates like the problem it wraps otherwise.
type stallProblem struct {
	objective.Problem
	stalled *atomic.Bool
}

func (p *stallProblem) Evaluate(x []float64) objective.Result {
	if p.stalled.Load() {
		time.Sleep(time.Second)
	}
	return p.Problem.Evaluate(x)
}

// flipFrameBit inverts one mid-frame bit via the fault package's file
// attack (round-tripping through a scratch file so the corruption comes
// from the same primitive the torn-write suite uses).
func flipFrameBit(frame []byte) []byte {
	return fileAttack(frame, func(path string) error {
		return fault.FlipBit(path, int64(len(frame))*4+1)
	})
}

// truncateFrame keeps only the first half of the sealed frame via
// fault.Truncate — a reply whose connection dies mid-write.
func truncateFrame(frame []byte) []byte {
	return fileAttack(frame, func(path string) error {
		return fault.Truncate(path, int64(len(frame))/2)
	})
}

// fileAttack round-trips frame through a scratch file under the given
// fault primitive; on any filesystem error the frame passes unharmed (the
// test then fails on the missing fault, not on a confusing corruption).
func fileAttack(frame []byte, attack func(path string) error) []byte {
	path := filepath.Join(os.TempDir(), fmt.Sprintf("shard-chaos-%d", os.Getpid()))
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		return frame
	}
	defer os.Remove(path)
	if err := attack(path); err != nil {
		return frame
	}
	out, err := os.ReadFile(path)
	if err != nil {
		return frame
	}
	return out
}

// ---------------------------------------------------------------------------
// In-process comparator: a chaos replica whose Step fails permanently from
// a given epoch WITHOUT advancing — the in-process twin of a worker process
// that is SIGKILLed before stepping, every attempt.

// procChaosParams selects the failing replica by its derived seed (the
// scheduler hands the same Extra to every replica) and the epoch its
// failures start. Panic makes the failing Step panic instead of returning
// an error: the engine bug a guarded step must contain. The params cross
// the worker boundary inside a Request, hence the gob registration.
type procChaosParams struct {
	TargetSeed int64
	FailFrom   int
	Panic      bool
}

type procChaosReplica struct {
	*nsga2.Engine
	p    procChaosParams
	seed int64
}

func init() {
	gob.Register(&procChaosParams{})
	search.Register("proc-chaos-replica", func() search.Engine { return &procChaosReplica{Engine: new(nsga2.Engine)} })
}

func (c *procChaosReplica) capture(opts *search.Options) {
	if p, ok := opts.Extra.(*procChaosParams); ok {
		c.p = *p
	}
	c.seed = opts.Seed
	opts.Extra = nil
}

func (c *procChaosReplica) Init(prob objective.Problem, opts search.Options) error {
	c.capture(&opts)
	return c.Engine.Init(prob, opts)
}

func (c *procChaosReplica) Restore(prob objective.Problem, opts search.Options, cp *search.Checkpoint) error {
	c.capture(&opts)
	return c.Engine.Restore(prob, opts, cp)
}

// Step keys the failure on the generation, which a failed step does not
// advance: retries observe the same epoch, and so does a worker that
// restores the replica from its checkpoint for every request.
func (c *procChaosReplica) Step() error {
	if c.seed == c.p.TargetSeed && c.Generation() >= c.p.FailFrom {
		if c.p.Panic {
			panic("proc chaos: injected step panic")
		}
		return errors.New("proc chaos: injected permanent failure")
	}
	return c.Engine.Step()
}

// ---------------------------------------------------------------------------
// Harness.

const (
	testSeed     = 7
	testReplicas = 3
)

func baseOpts() search.Options {
	return search.Options{PopSize: 24, Generations: 8, Seed: testSeed}
}

// shardedOpts configures a sharded run at the given process count, with
// chaosEnv ("" for none) armed in the workers.
func shardedOpts(t *testing.T, procs int, chaosEnv string) search.Options {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	env := []string{"SHARD_WORKER=1"}
	if chaosEnv != "" {
		env = append(env, "SHARD_CHAOS="+chaosEnv)
	}
	opts := baseOpts()
	opts.Extra = &Params{
		Replicas: testReplicas, Algo: "nsga2",
		MigrationEvery: 3, Migrants: 2,
		Procs: procs, WorkerArgv: []string{self}, WorkerEnv: env,
		Spec: "zdt1", Retries: 2,
		EpochDeadline: 20 * time.Second, HeartbeatTimeout: time.Second,
	}
	return opts
}

// inProcessOpts configures the comparator run on sched.ParallelIslands.
func inProcessOpts(algo string, extra any) search.Options {
	opts := baseOpts()
	opts.Extra = &sched.IslandsParams{
		Replicas: testReplicas, Algo: algo, Extra: extra,
		MigrationEvery: 3, Migrants: 2,
		StepWorkers: 1, StepRetries: 2,
	}
	return opts
}

// supervisedRun drives an engine to completion with a hang guard: a
// coordination bug must fail the test, not deadlock the suite.
func supervisedRun(t *testing.T, name string, opts search.Options) (*search.Result, error) {
	t.Helper()
	eng, err := search.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := eng.(*Islands); ok {
		defer s.Close()
	}
	type outcome struct {
		res *search.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, rerr := search.Run(context.Background(), eng, benchfn.ZDT1(6), opts)
		ch <- outcome{res, rerr}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(90 * time.Second):
		t.Fatal("run hung: a fault escaped the lease/heartbeat machinery")
		return nil, nil
	}
}

func popsIdentical(t *testing.T, what string, a, b ga.Population) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: size %d != %d", what, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		for j := range x.X {
			if x.X[j] != y.X[j] {
				t.Fatalf("%s: individual %d gene %d: %v != %v", what, i, j, x.X[j], y.X[j])
			}
		}
		for j := range x.Objectives {
			if x.Objectives[j] != y.Objectives[j] {
				t.Fatalf("%s: individual %d objective %d: %v != %v", what, i, j, x.Objectives[j], y.Objectives[j])
			}
		}
		if x.Rank != y.Rank || x.Crowding != y.Crowding {
			t.Fatalf("%s: individual %d rank/crowding (%d,%v) != (%d,%v)", what, i, x.Rank, x.Crowding, y.Rank, y.Crowding)
		}
	}
}

// replicaTarget is replica i's derived seed under the test master seed.
func replicaTarget(i int) int64 { return rng.ChildSeed(testSeed, sched.ReplicaLabel, i) }

// ---------------------------------------------------------------------------
// The determinism and chaos properties.

// TestShardedMatchesInProcess: with no faults, a sharded run is
// bit-identical to the in-process scheduler at every process count —
// sharding is an implementation detail of WHERE replicas step, invisible
// in the result.
func TestShardedMatchesInProcess(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			res, err := supervisedRun(t, NameShardedIslands, shardedOpts(t, procs, ""))
			if err != nil {
				t.Fatal(err)
			}
			if res.Evals != ref.Evals {
				t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
			}
			if res.Generations != ref.Generations {
				t.Fatalf("generations %d != in-process %d", res.Generations, ref.Generations)
			}
			popsIdentical(t, "final population", res.Final, ref.Final)
			popsIdentical(t, "front", res.Front, ref.Front)
		})
	}
}

// TestShardedBudgetMatchesInProcess: the coordinator-owned MaxEvals budget
// stops a sharded run at exactly the epoch the in-process scheduler stops —
// the "within one epoch" rule holds across the process boundary.
func TestShardedBudgetMatchesInProcess(t *testing.T) {
	inOpts := inProcessOpts("nsga2", nil)
	inOpts.MaxEvals = 100
	ref, err := supervisedRun(t, sched.NameParallelIslands, inOpts)
	if err != nil {
		t.Fatal(err)
	}
	shOpts := shardedOpts(t, 4, "")
	shOpts.MaxEvals = 100
	res, err := supervisedRun(t, NameShardedIslands, shOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != ref.Evals || res.Generations != ref.Generations {
		t.Fatalf("budget stop: sharded (evals %d, gens %d) != in-process (evals %d, gens %d)",
			res.Evals, res.Generations, ref.Evals, ref.Generations)
	}
	popsIdentical(t, "budget-capped population", res.Final, ref.Final)
}

// TestShardedTransientFaultsMasked: a worker SIGKILLed (or corrupting its
// reply frame) on one attempt is respawned and the step replayed from the
// authoritative checkpoint — bit-identical replay, so the run's result is
// IDENTICAL to a fault-free run. The strongest form of the recovery
// property: a transient crash leaves no trace at all.
func TestShardedTransientFaultsMasked(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, chaos string }{
		{"kill", "kill:1:3:0"},       // SIGKILL replica 1's worker mid-epoch 3, first attempt only
		{"corrupt", "corrupt:1:2:0"}, // one corrupted reply frame
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				res, err := supervisedRun(t, NameShardedIslands, shardedOpts(t, procs, tc.chaos))
				if err != nil {
					t.Fatalf("transient fault was not masked: %v", err)
				}
				if res.Evals != ref.Evals {
					t.Fatalf("evals %d != fault-free %d", res.Evals, ref.Evals)
				}
				popsIdentical(t, "final population", res.Final, ref.Final)
			})
		}
	}
}

// TestShardedPermanentKillDropsBitIdentical: a worker SIGKILLed on EVERY
// attempt of replica 1's epoch-3 step exhausts the retry budget; the
// replica is dropped at that epoch's barrier, and the degraded run is
// bit-identical to the in-process scheduler dropping the same replica at
// the same epoch (the comparator's chaos replica fails from epoch 3
// without advancing, exactly like a worker that dies before stepping).
func TestShardedPermanentKillDropsBitIdentical(t *testing.T) {
	refOpts := inProcessOpts("proc-chaos-replica", &procChaosParams{TargetSeed: replicaTarget(1), FailFrom: 3})
	ref, refErr := supervisedRun(t, sched.NameParallelIslands, refOpts)
	var refRE *sched.ReplicaError
	if !errors.As(refErr, &refRE) || len(refRE.Dropped) != 1 || refRE.Dropped[0] != 1 {
		t.Fatalf("comparator: %v, want replica 1 dropped", refErr)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			res, err := supervisedRun(t, NameShardedIslands, shardedOpts(t, procs, "kill:1:3:99"))
			var re *sched.ReplicaError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *sched.ReplicaError", err, err)
			}
			if len(re.Dropped) != 1 || re.Dropped[0] != 1 || re.AllDead {
				t.Fatalf("dropped %v (allDead=%v), want exactly replica 1", re.Dropped, re.AllDead)
			}
			popsIdentical(t, "degraded population", res.Final, ref.Final)
			popsIdentical(t, "degraded front", res.Front, ref.Front)
		})
	}
}

// TestPanickingReplicaStepDropped: a replica engine whose Step panics (an
// engine bug, not an evaluation fault) is contained by search.GuardedStep
// on both sides of the wire. In process, parallel-islands drops the
// replica after its retries with an error naming the panic and finishes
// on the other two. Sharded, the worker recovers the panic and replies
// with it on the same connection at every attempt, and the coordinator
// drops the replica the same way, bit-identically.
func TestPanickingReplicaStepDropped(t *testing.T) {
	chaos := &procChaosParams{TargetSeed: replicaTarget(1), FailFrom: 3, Panic: true}
	checkDropped := func(t *testing.T, res *search.Result, err error) {
		t.Helper()
		var re *sched.ReplicaError
		if !errors.As(err, &re) {
			t.Fatalf("error is %T (%v), want *sched.ReplicaError", err, err)
		}
		if len(re.Dropped) != 1 || re.Dropped[0] != 1 || re.AllDead {
			t.Fatalf("dropped %v (allDead=%v), want exactly replica 1", re.Dropped, re.AllDead)
		}
		if msg := re.Errs[0].Error(); !strings.Contains(msg, "step panicked: proc chaos: injected step panic") {
			t.Fatalf("drop cause %q does not name the panic", msg)
		}
		if res == nil || res.Generations != baseOpts().Generations || len(res.Front) == 0 {
			t.Fatalf("run did not finish on the surviving replicas: %+v", res)
		}
	}
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("proc-chaos-replica", chaos))
	checkDropped(t, ref, err)

	var attempts atomic.Int64 // replica 1's requests at the panicking epoch
	addr := loopbackWorker(t, func(c net.Conn) {
		ServeWorker(c, c, WorkerConfig{
			Build: buildTestProblem,
			OnStep: func(info StepInfo) {
				if !info.Init && info.Replica == 1 && info.Epoch == chaos.FailFrom {
					attempts.Add(1)
				}
			},
		})
	})
	dials := new(atomic.Int64)
	pool := fleet.NewPool(dialCounter{
		Transport: &fleet.TCPTransport{Address: addr, Hello: fleet.HandshakeConfig{Problem: "zdt1"}},
		dials:     dials,
	})
	defer pool.Close()
	opts := tcpOpts(nil)
	p := opts.Extra.(*Params)
	p.Pool, p.Algo, p.Extra = pool, "proc-chaos-replica", chaos
	res, err := supervisedRun(t, NameShardedIslands, opts)
	checkDropped(t, res, err)
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials, want 1: the worker must survive the panic and serve every attempt on one connection", n)
	}
	if n, want := attempts.Load(), int64(1+p.Retries); n != want {
		t.Fatalf("replica 1 was stepped %d times at epoch %d, want 1 + Retries = %d", n, chaos.FailFrom, want)
	}
	popsIdentical(t, "degraded population", res.Final, ref.Final)
	popsIdentical(t, "degraded front", res.Front, ref.Front)
}

// TestShardedWedgedWorkerReclaimed: a frozen worker (no reply, no
// heartbeats) trips the heartbeat deadline, is SIGKILLed by the
// coordinator, and — wedging every attempt — its replica is dropped
// bit-identically to the in-process comparator. The watchdog property one
// level up: reclamation of a wedged process always succeeds.
func TestShardedWedgedWorkerReclaimed(t *testing.T) {
	refOpts := inProcessOpts("proc-chaos-replica", &procChaosParams{TargetSeed: replicaTarget(2), FailFrom: 2})
	ref, refErr := supervisedRun(t, sched.NameParallelIslands, refOpts)
	var refRE *sched.ReplicaError
	if !errors.As(refErr, &refRE) || len(refRE.Dropped) != 1 || refRE.Dropped[0] != 2 {
		t.Fatalf("comparator: %v, want replica 2 dropped", refErr)
	}
	opts := shardedOpts(t, 4, "wedge:2:2:99")
	p := opts.Extra.(*Params)
	p.HeartbeatTimeout = 400 * time.Millisecond
	p.Retries = 1
	res, err := supervisedRun(t, NameShardedIslands, opts)
	var re *sched.ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want *sched.ReplicaError", err, err)
	}
	if len(re.Dropped) != 1 || re.Dropped[0] != 2 {
		t.Fatalf("dropped %v, want exactly replica 2", re.Dropped)
	}
	if !strings.Contains(re.Errs[0].Error(), "heartbeat") {
		t.Fatalf("drop cause %q does not name the heartbeat deadline", re.Errs[0])
	}
	popsIdentical(t, "degraded population", res.Final, ref.Final)
}

// TestShardedStalledStepHitsLease: a worker whose step runs past the
// epoch lease while its heartbeats keep flowing is reclaimed by the lease
// alone, over stdio pipes and over loopback TCP. Stalling every attempt
// of replica 1's epoch-2 step drops the replica there, with a cause that
// names the lease, not the heartbeat, and the degraded run is
// bit-identical to the in-process comparator.
func TestShardedStalledStepHitsLease(t *testing.T) {
	refOpts := inProcessOpts("proc-chaos-replica", &procChaosParams{TargetSeed: replicaTarget(1), FailFrom: 2})
	ref, refErr := supervisedRun(t, sched.NameParallelIslands, refOpts)
	var refRE *sched.ReplicaError
	if !errors.As(refErr, &refRE) || len(refRE.Dropped) != 1 || refRE.Dropped[0] != 1 {
		t.Fatalf("comparator: %v, want replica 1 dropped", refErr)
	}
	const chaos = "stall:1:2:99"
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) search.Options
	}{
		{"stdio", func(t *testing.T) search.Options { return shardedOpts(t, 2, chaos) }},
		{"tcp", func(t *testing.T) search.Options {
			return tcpOpts(daemonAddrs(startTCPDaemons(t, 1, "SHARD_CHAOS="+chaos)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts(t)
			p := opts.Extra.(*Params)
			// Heartbeats every 50 ms, a 500 ms gap allowed between
			// frames, and a 1.5 s lease: only the lease can fire.
			p.HeartbeatEvery = 50 * time.Millisecond
			p.HeartbeatTimeout = 500 * time.Millisecond
			p.EpochDeadline = 1500 * time.Millisecond
			p.Retries = 1
			res, err := supervisedRun(t, NameShardedIslands, opts)
			var re *sched.ReplicaError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *sched.ReplicaError", err, err)
			}
			if len(re.Dropped) != 1 || re.Dropped[0] != 1 {
				t.Fatalf("dropped %v, want exactly replica 1", re.Dropped)
			}
			if cause := re.Errs[0].Error(); !strings.Contains(cause, "lease") || strings.Contains(cause, "heartbeat") {
				t.Fatalf("drop cause %q does not name the lease alone", cause)
			}
			popsIdentical(t, "degraded population", res.Final, ref.Final)
		})
	}
}

// TestShardedCorruptFramesDropTyped: a worker permanently corrupting its
// reply frames is retried (fresh process each time — the stream is
// tainted), then dropped; the drop cause is the typed *search.CorruptError
// from the frame CRC, never a gob panic, and the degraded result is
// bit-identical to the comparator.
func TestShardedCorruptFramesDropTyped(t *testing.T) {
	refOpts := inProcessOpts("proc-chaos-replica", &procChaosParams{TargetSeed: replicaTarget(0), FailFrom: 4})
	ref, refErr := supervisedRun(t, sched.NameParallelIslands, refOpts)
	var refRE *sched.ReplicaError
	if !errors.As(refErr, &refRE) || len(refRE.Dropped) != 1 || refRE.Dropped[0] != 0 {
		t.Fatalf("comparator: %v, want replica 0 dropped", refErr)
	}
	res, err := supervisedRun(t, NameShardedIslands, shardedOpts(t, 4, "corrupt:0:4:99"))
	var re *sched.ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want *sched.ReplicaError", err, err)
	}
	if len(re.Dropped) != 1 || re.Dropped[0] != 0 {
		t.Fatalf("dropped %v, want exactly replica 0", re.Dropped)
	}
	var ce *search.CorruptError
	if !errors.As(re.Errs[0], &ce) {
		t.Fatalf("drop cause is %T (%v), want *search.CorruptError", re.Errs[0], re.Errs[0])
	}
	popsIdentical(t, "degraded population", res.Final, ref.Final)
}

// TestShardedCheckpointResume: a sharded run snapshotted mid-flight,
// persisted through the durable checkpoint layer, and resumed on a FRESH
// coordinator (fresh worker processes) finishes bit-identically to the
// uninterrupted run — state outlives every process involved.
func TestShardedCheckpointResume(t *testing.T) {
	prob := benchfn.ZDT1(6)
	opts := shardedOpts(t, 2, "")

	full, err := search.New(NameShardedIslands)
	if err != nil {
		t.Fatal(err)
	}
	defer full.(*Islands).Close()
	if err := full.Init(prob, opts); err != nil {
		t.Fatal(err)
	}
	fork, err := search.New(NameShardedIslands)
	if err != nil {
		t.Fatal(err)
	}
	defer fork.(*Islands).Close()
	for i := 0; i < 4; i++ {
		if err := full.Step(); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "sharded.ckpt")
	if err := search.SaveCheckpoint(path, full.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	cp, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(prob, opts, cp); err != nil {
		t.Fatal(err)
	}
	for !full.Done() {
		if err := full.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for !fork.Done() {
		if err := fork.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if full.Evals() != fork.Evals() {
		t.Fatalf("evals diverged: %d != %d", full.Evals(), fork.Evals())
	}
	popsIdentical(t, "resumed population", fork.Population(), full.Population())
}
