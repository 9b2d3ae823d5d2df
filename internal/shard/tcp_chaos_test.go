// The loopback-TCP chaos suite: the same coordinator, driven over real TCP
// connections to long-lived worker daemons (this test binary re-execed
// with SHARD_TCP_WORKER=1 — the cmd/sacgaw serving loop in miniature) that
// are SIGKILLed mid-step, drop connections mid-frame, corrupt their reply
// frames, or advertise a mismatched build fingerprint on cue. Every
// recoverable outcome is compared BIT-IDENTICALLY against the in-process
// scheduler, extending the package's determinism contract across the
// network boundary: the transport a replica steps over must be invisible
// in the result.
package shard

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// runTCPChaosWorker is the SHARD_TCP_WORKER=1 re-exec entry point: a
// worker daemon on a kernel-picked loopback port, serving every accepted
// connection concurrently like cmd/sacgaw. The picked address is printed
// on stdout ("ADDR host:port") for the spawning test to scan. Chaos hooks
// come from the same SHARD_CHAOS env the stdio worker uses, except that
// drop mode ends only the faulted connection — the daemon survives, so
// the coordinator's redial of the SAME address is what gets exercised.
func runTCPChaosWorker() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcp chaos worker:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcp chaos worker:", err)
			os.Exit(1)
		}
		go func(c net.Conn) {
			defer c.Close()
			cfg := WorkerConfig{
				Build:          buildTestProblem,
				HeartbeatEvery: 50 * time.Millisecond,
			}
			if fp := os.Getenv("SHARD_BUILD_FP"); fp != "" {
				cfg.Handshake.Build = fp
			}
			applyChaosEnv(&cfg, func() { c.Close() })
			ServeWorker(c, c, cfg) // teardown errors are the tests' doing
		}(conn)
	}
}

// tcpDaemon is one spawned worker daemon.
type tcpDaemon struct {
	cmd  *exec.Cmd
	addr string
}

// startTCPDaemons spawns n worker daemons (with the given extra env) and
// returns them once each has printed its listen address. Cleanup kills
// and reaps them.
func startTCPDaemons(t *testing.T, n int, env ...string) []*tcpDaemon {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ds := make([]*tcpDaemon, n)
	for i := range ds {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), "SHARD_TCP_WORKER=1")
		cmd.Env = append(cmd.Env, env...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatalf("daemon %d exited before printing its address", i)
		}
		addr, ok := strings.CutPrefix(sc.Text(), "ADDR ")
		if !ok {
			t.Fatalf("daemon %d: unexpected first line %q", i, sc.Text())
		}
		go io.Copy(io.Discard, stdout) // keep the pipe drained
		ds[i] = &tcpDaemon{cmd: cmd, addr: addr}
	}
	return ds
}

func daemonAddrs(ds []*tcpDaemon) []string {
	addrs := make([]string, len(ds))
	for i, d := range ds {
		addrs[i] = d.addr
	}
	return addrs
}

// tcpOpts configures a TCP-sharded run against the given daemon
// addresses, mirroring shardedOpts.
func tcpOpts(addrs []string) search.Options {
	opts := baseOpts()
	opts.Extra = &Params{
		Replicas: testReplicas, Algo: "nsga2",
		MigrationEvery: 3, Migrants: 2,
		Workers: addrs, Spec: "zdt1",
		EpochDeadline: 20 * time.Second, HeartbeatTimeout: time.Second,
	}
	return opts
}

// TestTCPShardedMatchesInProcess: with no faults, a TCP-sharded run is
// bit-identical to the in-process scheduler at every daemon count — the
// network transport, like the process count before it, is an
// implementation detail of WHERE replicas step.
func TestTCPShardedMatchesInProcess(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, daemons := range []int{1, 4} {
		t.Run(fmt.Sprintf("daemons=%d", daemons), func(t *testing.T) {
			ds := startTCPDaemons(t, daemons)
			res, err := supervisedRun(t, NameShardedIslands, tcpOpts(daemonAddrs(ds)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Evals != ref.Evals {
				t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
			}
			popsIdentical(t, "final population", res.Final, ref.Final)
			popsIdentical(t, "front", res.Front, ref.Front)
		})
	}
}

// TestTCPShardedDaemonKilledMasked: every daemon is armed to SIGKILL
// itself when it serves replica 1's epoch-3 step — so exactly one daemon
// dies mid-step, taking its connection with it. The replay lands on the
// survivor (the pool's healthy-first assignment), the dead address is
// degraded behind redial backoff, and the result is bit-identical to a
// fault-free run: losing a whole machine mid-step leaves no trace.
func TestTCPShardedDaemonKilledMasked(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	ds := startTCPDaemons(t, 2, "SHARD_CHAOS=kill:1:3:0")
	res, err := supervisedRun(t, NameShardedIslands, tcpOpts(daemonAddrs(ds)))
	if err != nil {
		t.Fatalf("daemon kill was not masked: %v", err)
	}
	if res.Evals != ref.Evals {
		t.Fatalf("evals %d != fault-free %d", res.Evals, ref.Evals)
	}
	popsIdentical(t, "final population", res.Final, ref.Final)
}

// TestTCPShardedDroppedConnMasked: the daemon truncates one reply frame
// mid-write and closes just that connection — a network drop mid-frame.
// The daemon itself survives, so the coordinator redials the SAME address
// and replays; with a single daemon there is nowhere else to go, which
// makes the redial path load-bearing.
func TestTCPShardedDroppedConnMasked(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	ds := startTCPDaemons(t, 1, "SHARD_CHAOS=drop:1:2:0")
	res, err := supervisedRun(t, NameShardedIslands, tcpOpts(daemonAddrs(ds)))
	if err != nil {
		t.Fatalf("dropped connection was not masked: %v", err)
	}
	if res.Evals != ref.Evals {
		t.Fatalf("evals %d != fault-free %d", res.Evals, ref.Evals)
	}
	popsIdentical(t, "final population", res.Final, ref.Final)
}

// TestTCPShardedCorruptPermanentDropsTyped: a daemon fleet that corrupts
// replica 0's replies on every attempt exhausts the retry budget; the
// replica is dropped with the typed *search.CorruptError from the frame
// CRC, and the degraded run is bit-identical to the in-process comparator
// dropping the same replica at the same epoch — PR 8's comparator, now
// across TCP.
func TestTCPShardedCorruptPermanentDropsTyped(t *testing.T) {
	refOpts := inProcessOpts("proc-chaos-replica", &procChaosParams{TargetSeed: replicaTarget(0), FailFrom: 4})
	ref, refErr := supervisedRun(t, sched.NameParallelIslands, refOpts)
	var refRE *sched.ReplicaError
	if !errors.As(refErr, &refRE) || len(refRE.Dropped) != 1 || refRE.Dropped[0] != 0 {
		t.Fatalf("comparator: %v, want replica 0 dropped", refErr)
	}
	ds := startTCPDaemons(t, 2, "SHARD_CHAOS=corrupt:0:4:99")
	res, err := supervisedRun(t, NameShardedIslands, tcpOpts(daemonAddrs(ds)))
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

// TestTCPShardedMixedPoolMatches: child processes and TCP daemons in ONE
// pool — the -shard N plus -fleet addr form — still bit-identical:
// workers are stateless, so which transport steps which replica cannot
// matter.
func TestTCPShardedMixedPoolMatches(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	ds := startTCPDaemons(t, 1)
	opts := shardedOpts(t, 2, "")
	opts.Extra.(*Params).Workers = daemonAddrs(ds)
	res, err := supervisedRun(t, NameShardedIslands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != ref.Evals {
		t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
	}
	popsIdentical(t, "final population", res.Final, ref.Final)
}

// TestTCPShardedSharedPoolSkipsDeadAddress: an externally owned
// fleet.Pool (the job-server form) with one dead address degrades to the
// healthy daemon in index order — the run completes bit-identically, and
// the pool's stats report the dead worker down with its dial error while
// the healthy one carries every epoch.
func TestTCPShardedSharedPoolSkipsDeadAddress(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	ds := startTCPDaemons(t, 1)
	// A kernel-picked port with nothing listening: dials fail fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	pool := fleet.NewPool(
		&fleet.TCPTransport{Address: deadAddr},
		&fleet.TCPTransport{Address: ds[0].addr},
	)
	defer pool.Close()
	opts := tcpOpts(nil)
	opts.Extra.(*Params).Pool = pool
	res, err := supervisedRun(t, NameShardedIslands, opts)
	if err != nil {
		t.Fatalf("dead address was not degraded past: %v", err)
	}
	if res.Evals != ref.Evals {
		t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
	}
	popsIdentical(t, "final population", res.Final, ref.Final)
	stats := pool.Stats()
	if stats[0].Addr != deadAddr || stats[0].State != fleet.WorkerDown || stats[0].Failures == 0 || stats[0].LastError == "" {
		t.Fatalf("dead worker stat %+v, want down with failures and an error", stats[0])
	}
	if stats[1].EpochsServed == 0 || stats[1].Failures != 0 {
		t.Fatalf("healthy worker stat %+v, want epochs served and no failures", stats[1])
	}
}

// dialCounter is a fleet.Transport that counts its Dial calls into dials.
type dialCounter struct {
	fleet.Transport
	dials *atomic.Int64
}

// Dial implements fleet.Transport.
func (d dialCounter) Dial() (fleet.Conn, error) {
	d.dials.Add(1)
	return d.Transport.Dial()
}

// initMismatched initializes a sharded run over a shared pool of ts, whose
// workers all advertise a foreign build fingerprint, and requires the typed
// *fleet.VersionError and exactly one dial per replica: the mismatch is
// permanent for the pair, so a replica that retried it would dial the same
// binary 1+sched.StepRetries times.
func initMismatched(t *testing.T, opts search.Options, ts ...fleet.Transport) *fleet.VersionError {
	t.Helper()
	dials := new(atomic.Int64)
	for i, tr := range ts {
		ts[i] = dialCounter{Transport: tr, dials: dials}
	}
	pool := fleet.NewPool(ts...)
	defer pool.Close()
	p := opts.Extra.(*Params)
	p.Pool = pool
	eng, err := search.New(NameShardedIslands)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.(*Islands).Close()
	err = eng.Init(zdt1Prob(t), opts)
	var ve *fleet.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Init error is %T (%v), want *fleet.VersionError", err, err)
	}
	if n := dials.Load(); n != int64(p.Replicas) {
		t.Fatalf("%d dials for %d replicas, want one each: the mismatch was retried", n, p.Replicas)
	}
	return ve
}

// TestTCPShardedVersionMismatchFailsFast: a daemon advertising a foreign
// build fingerprint is rejected at dial time with the typed
// *fleet.VersionError — and because the mismatch is permanent for the
// pair, the replica fails immediately instead of burning its retry
// ladder against the same binary.
func TestTCPShardedVersionMismatchFailsFast(t *testing.T) {
	ds := startTCPDaemons(t, 1, "SHARD_BUILD_FP=deadbeefdeadbeef")
	ve := initMismatched(t, tcpOpts(nil), &fleet.TCPTransport{Address: ds[0].addr, Hello: fleet.HandshakeConfig{Problem: "zdt1"}})
	if ve.Field != "build" || ve.Worker != "deadbeefdeadbeef" {
		t.Fatalf("mismatch %+v, want build mismatch against the fake fingerprint", ve)
	}
}

// TestStdioVersionMismatchFailsFast: the same dial-time rejection on the
// original stdio transport — the handshake retrofit covers child
// processes, not just daemons.
func TestStdioVersionMismatchFailsFast(t *testing.T) {
	opts := shardedOpts(t, 2, "")
	p := opts.Extra.(*Params)
	env := append(p.WorkerEnv, "SHARD_BUILD_FP=deadbeefdeadbeef")
	ts := make([]fleet.Transport, p.Procs)
	for i := range ts {
		ts[i] = &fleet.ProcTransport{Argv: p.WorkerArgv, Env: env, Hello: fleet.HandshakeConfig{Problem: p.Spec}}
	}
	ve := initMismatched(t, opts, ts...)
	if ve.Field != "build" {
		t.Fatalf("mismatch field %q, want build", ve.Field)
	}
}

// zdt1Prob builds the suite's test problem through the worker's own hook.
func zdt1Prob(t testing.TB) objective.Problem {
	t.Helper()
	prob, err := buildTestProblem("zdt1")
	if err != nil {
		t.Fatal(err)
	}
	return prob
}
