// Command perfbench is the repository benchmark. It runs one workload —
// reproduce, shard-zdt1 or serve-mix, or all three with -workload all —
// for a fixed time, checks the program's outputs, and prints a report that
// ends in one JSON line: the end-to-end metrics, or with -trace 1 the
// per-layer breakdown taken from a second, traced pass over the same work.
//
// The same binary is the stdio shard worker (-worker) and the loopback TCP
// worker daemon (-daemon) the workloads spawn, so the coordinator and its
// workers always share one build fingerprint.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload shard-zdt1 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its runner. A runner always returns
// its outcome, with an error when it could not finish.
var workloads = map[string]func(*env) (*outcome, error){
	"reproduce":  runReproduce,
	"shard-zdt1": runShardZDT1,
	"serve-mix":  runServeMix,
}

func main() {
	var (
		workload = flag.String("workload", "all", "reproduce, shard-zdt1, serve-mix or all")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", 30, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = add a traced pass and report the per-layer metrics")
		worker   = flag.Bool("worker", false, "serve the shard protocol on stdin/stdout (spawned by shard-zdt1)")
		daemon   = flag.Bool("daemon", false, "serve the shard protocol on a loopback TCP port (spawned by serve-mix)")
	)
	flag.Parse()
	switch {
	case *worker:
		exitOn(runWorker())
		return
	case *daemon:
		exitOn(runDaemon())
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"reproduce", "shard-zdt1", "serve-mix"}
	}
	for _, name := range names {
		if workloads[name] == nil {
			usage(fmt.Sprintf("unknown workload %q", name))
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		usage("-seconds must be positive and -trace 0 or 1")
	}
	ok := true
	for _, name := range names {
		ok = runOne(name, *seed, time.Duration(*seconds)*time.Second, *trace == 1) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in a scratch directory of its own, then prints
// its report and JSON line. It reports whether every output check passed.
func runOne(name string, seed int64, budget time.Duration, traced bool) bool {
	e, err := newEnv(name, seed, budget, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	defer os.RemoveAll(e.dir)
	fmt.Printf("perfbench %s: seed %d, %v measured, traced %v; %d CPUs, %s %s/%s\n",
		name, seed, budget, traced, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	o, err := workloads[name](e)
	if err != nil {
		// A run that could not finish fails every operation it owes.
		o.check("run", err)
		o.attempted = max(o.attempted, 1)
		o.failed = o.attempted
	}
	o.print(os.Stdout, traced)
	line, err := json.Marshal(o.result(traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return o.correct()
}

// env is what one workload run is given.
type env struct {
	seed   int64
	budget time.Duration // how long the measured phase may run
	trace  bool          // add a traced pass
	self   string        // this binary, spawned as worker or daemon
	dir    string        // scratch directory inside the checkout
}

func newEnv(name string, seed int64, budget time.Duration, traced bool) (*env, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: seed, budget: budget, trace: traced, self: self, dir: dir}, nil
}

// subdir creates a directory under the run's scratch directory.
func (e *env) subdir(name string) (string, error) {
	d := filepath.Join(e.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	flag.Usage()
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
