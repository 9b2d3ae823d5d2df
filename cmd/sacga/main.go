// Command sacga runs one multi-objective optimizer on one registered
// problem and writes the resulting Pareto front.
//
// Problems: the analog integrator sizing problem ("integrator", optionally
// with -grade to pick a spec from the 20-step difficulty ladder) and the
// benchmark suite (zdt1..zdt6, schaffer, fonseca, kursawe, constr, srn,
// tnk, bnh, dtlz1, dtlz2).
//
// Algorithms: tpg (NSGA-II), sacga, mesacga, local (local-competition-only
// ablation), plus the multi-engine schedulers — islands (the paper's
// parallel-population comparator: five NSGA-II islands on a ring),
// parislands (four concurrent engine replicas with ring migration), relay
// (NSGA-II warm start handing off to SACGA) and portfolio (tpg vs sacga
// raced under one budget) — all dispatched by name through the unified
// search registry and driven by search.Run, so a run can be cancelled
// with Ctrl-C (the best-so-far front is still printed) and capped with
// -maxevals.
//
// Long runs survive preemption with -checkpoint: the engine state is
// durably snapshotted every -checkpoint-every generations (and on
// interrupt), and -resume continues bit-identically from the file — or,
// when the newest file is torn or corrupt, from the last-good .prev
// rotation (with a warning).
//
// The parislands scheduler can shard its replicas across worker OS
// processes with -shard N: the coordinator spawns N copies of this binary
// in -worker mode (a non-interactive mode serving the shard protocol on
// stdin/stdout), ships each replica's checkpoint out for every epoch, and
// survives worker crashes by respawning and replaying — results are
// bit-identical to the in-process run, faults or not. With -fleet
// addr,addr the same replicas shard over TCP worker daemons (cmd/sacgaw)
// instead — or as well: -shard and -fleet combine into one mixed pool of
// local processes and remote machines, still bit-identical.
//
// Exit codes distinguish how a run ended: 0 completed, 1 internal error,
// 2 usage error, 3 cancelled (Ctrl-C; a second Ctrl-C exits immediately),
// 4 degraded by evaluation faults or dropped replicas (the best-so-far
// front still prints), 5 stopped by the -maxevals budget.
//
// Example:
//
//	sacga -problem integrator -algo mesacga -iters 800 -pop 100 -out front.csv
//	sacga -problem zdt3 -algo sacga -partitions 10 -iters 200
//	sacga -problem integrator -algo relay -iters 800 -checkpoint run.ckpt
//	sacga -problem integrator -algo relay -iters 800 -checkpoint run.ckpt -resume
//	sacga -problem zdt1 -algo parislands -shard 4 -iters 200
//	sacga -problem zdt1 -algo parislands -fleet host1:9750,host2:9750
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"sacga/internal/benchfn"
	"sacga/internal/hypervolume"
	"sacga/internal/mesacga"
	"sacga/internal/objective"
	"sacga/internal/plot"
	"sacga/internal/probspec"
	"sacga/internal/sacga"
	"sacga/internal/sched"
	"sacga/internal/search"
	_ "sacga/internal/search/engines"
	"sacga/internal/shard"
	"sacga/internal/sizing"
)

func main() {
	var (
		problem    = flag.String("problem", "integrator", "problem name (integrator or a benchmark: "+strings.Join(benchfn.Names(), ",")+")")
		algo       = flag.String("algo", "sacga", "optimizer: tpg|sacga|mesacga|local|islands|parislands|relay|portfolio (islands: 5 NSGA-II replicas on a ring, parislands: 4)")
		pop        = flag.Int("pop", 100, "population size")
		iters      = flag.Int("iters", 800, "total iterations")
		partitions = flag.Int("partitions", 8, "SACGA partition count")
		schedule   = flag.String("schedule", "20,13,8,5,3,2,1", "MESACGA partition schedule")
		gentMax    = flag.Int("gent", 200, "phase-I iteration cap")
		grade      = flag.Int("grade", 0, "integrator spec grade 1..20 (0 = the paper's spec)")
		robust     = flag.Int("robust", 8, "robustness MC samples for the integrator (0 = off)")
		seed       = flag.Int64("seed", 1, "random seed")
		maxEvals   = flag.Int64("maxevals", 0, "stop within one generation of this evaluation budget (0 = unlimited)")
		trace      = flag.Int("trace", 0, "print a hypervolume trace line every N generations (0 = off)")
		out        = flag.String("out", "", "write the front to this CSV file")
		ckpt       = flag.String("checkpoint", "", "durable checkpoint file, written atomically every -checkpoint-every generations and on interrupt")
		ckptEvery  = flag.Int("checkpoint-every", 50, "generations between checkpoint writes (with -checkpoint)")
		resume     = flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh (same problem/algo/options)")
		shardProcs = flag.Int("shard", 0, "with -algo parislands: shard the replicas across N worker OS processes (0 = in-process)")
		fleetAddrs = flag.String("fleet", "", "with -algo parislands: comma-separated sacgaw worker daemon addresses to shard over TCP (combinable with -shard N for a mixed pool)")
		worker     = flag.Bool("worker", false, "serve as a shard worker on stdin/stdout (spawned by -shard coordinators; not for interactive use)")
	)
	flag.Parse()

	if *worker {
		if err := runWorker(); err != nil {
			fatal(fmt.Errorf("worker: %w", err))
		}
		return
	}

	spec := probspec.Spec{Name: *problem, Grade: *grade, Robust: *robust, Seed: *seed}
	prob, isCircuit, err := spec.BuildValidated()
	if err != nil {
		fatalUsage(err)
	}
	counter := objective.NewCounter(prob)

	pLo, pHi, pObj := partitionRange(prob, isCircuit)
	opts := search.Options{
		PopSize:     *pop,
		Generations: *iters,
		MaxEvals:    *maxEvals,
		Seed:        *seed,
	}
	sacgaParams := &sacga.Params{
		Partitions:         *partitions,
		PartitionObjective: pObj,
		PartitionLo:        pLo,
		PartitionHi:        pHi,
		GentMax:            *gentMax,
	}
	var name string
	switch *algo {
	case "tpg":
		name = "nsga2"
	case "sacga":
		name = "sacga"
		opts.Extra = sacgaParams
	case "local":
		name = "sacga"
		sacgaParams.LocalOnly = true
		opts.Extra = sacgaParams
	case "mesacga":
		name = "mesacga"
		sched, err := parseSchedule(*schedule)
		if err != nil {
			fatalUsage(err)
		}
		span := (*iters - *gentMax) / len(sched)
		if span < 1 {
			span = 1
		}
		opts.Extra = &mesacga.Params{
			Schedule:           sched,
			PartitionObjective: pObj,
			PartitionLo:        pLo,
			PartitionHi:        pHi,
			GentMax:            *gentMax,
			Span:               span,
		}
	case "islands":
		name = "parallel-islands"
		opts.Extra = &sched.IslandsParams{Replicas: 5, Algo: "nsga2", MigrationEvery: 10, Migrants: 2}
	case "parislands":
		if *shardProcs > 0 || *fleetAddrs != "" {
			// Same replica ensemble, sharded across worker processes
			// (-shard N child processes of this binary), TCP worker daemons
			// (-fleet addr,addr naming cmd/sacgaw instances), or a mixed
			// pool of both. Results are bit-identical to the in-process
			// run; worker crashes are retried and, past the retry budget,
			// degrade the run replica-by-replica (exit code 4).
			name = shard.NameShardedIslands
			p := &shard.Params{
				Replicas: 4, Algo: "nsga2", MigrationEvery: 10, Migrants: 2,
				Spec: spec.Encode(),
			}
			if *shardProcs > 0 {
				self, eerr := os.Executable()
				if eerr != nil {
					fatal(eerr)
				}
				p.Procs = *shardProcs
				p.WorkerArgv = []string{self, "-worker"}
			}
			if *fleetAddrs != "" {
				p.Workers = splitAddrs(*fleetAddrs)
			}
			opts.Extra = p
		} else {
			name = "parallel-islands"
			opts.Extra = &sched.IslandsParams{Replicas: 4, Algo: "nsga2", MigrationEvery: 10, Migrants: 2}
		}
	case "relay":
		// The paper's phase structure as an engine pair: a global-competition
		// warm start for a quarter of the budget, handing its population to
		// SACGA's annealed mixed competition for the remainder.
		name = "relay"
		opts.Extra = &sched.RelayParams{Legs: []sched.Leg{
			{Algo: "nsga2", Generations: *iters / 4},
			{Algo: "sacga", Extra: sacgaParams},
		}}
	case "portfolio":
		name = "portfolio"
		pf := &sched.PortfolioParams{Members: []sched.Member{
			{Algo: "nsga2"},
			{Algo: "sacga", Extra: sacgaParams},
		}}
		if isCircuit {
			pf.Project = probspec.CircuitPoint // score the race on the reported (CL, Power) plane
		}
		opts.Extra = pf
	default:
		fatalUsage(fmt.Errorf("unknown algorithm %q (registry has %v)", *algo, search.Names()))
	}
	if (*shardProcs > 0 || *fleetAddrs != "") && name != shard.NameShardedIslands {
		fatalUsage(fmt.Errorf("-shard and -fleet only apply to -algo parislands"))
	}

	eng, err := search.New(name)
	if err != nil {
		fatal(err)
	}
	if sh, ok := eng.(*shard.Islands); ok {
		defer sh.Close() // reap worker processes even on a cancelled run
	}
	var observers []search.Observer
	hvObs := &search.HypervolumeObserver{Every: *trace}
	if *trace > 0 {
		if isCircuit {
			// The reported (CL, Power) plane in 0.1 mW·pF, as the final
			// line prints it.
			hvObs.Project, hvObs.Score = probspec.CircuitPoint, probspec.CircuitHV
		}
		observers = append(observers, hvObs, search.ObserverFunc(func(f *search.Frame) {
			if f.Gen%*trace == 0 {
				fmt.Printf("gen %5d  evals %8d  hv %.4g\n", f.Gen, f.Evals, hvObs.Last().HV)
			}
		}))
	}

	if *ckpt != "" {
		every := *ckptEvery
		if every < 1 {
			every = 1
		}
		observers = append(observers, search.ObserverFunc(func(f *search.Frame) {
			if f.Gen%every != 0 {
				return
			}
			if err := search.SaveCheckpoint(*ckpt, f.Engine.Checkpoint()); err != nil {
				fmt.Fprintf(os.Stderr, "sacga: checkpoint: %v\n", err)
			}
		}))
	}

	// The first Ctrl-C cancels between generations and the partial result
	// still prints; a second Ctrl-C — a run stuck in a hung evaluation, or
	// an impatient operator — exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "sacga: second interrupt, exiting immediately")
		os.Exit(exitCancelled)
	}()
	var res *search.Result
	if *resume {
		if *ckpt == "" {
			fatalUsage(fmt.Errorf("-resume requires -checkpoint <path>"))
		}
		cp, loadedFrom, lerr := search.LoadLatestCheckpoint(*ckpt)
		if lerr != nil {
			fatal(lerr)
		}
		if loadedFrom != *ckpt {
			fmt.Fprintf(os.Stderr, "sacga: checkpoint %s is corrupt or missing; resuming from last-good %s\n", *ckpt, loadedFrom)
		}
		fmt.Printf("resuming %s from %s at generation %d (%d evaluations)\n", cp.Algo, loadedFrom, cp.Gen, cp.Evals)
		res, err = search.Resume(ctx, eng, counter, opts, cp, observers...)
	} else {
		res, err = search.Run(ctx, eng, counter, opts, observers...)
	}
	exitCode := exitOK
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			exitCode = exitCancelled
			fmt.Fprintf(os.Stderr, "sacga: interrupted after %d generations; reporting the front so far\n", res.Generations)
			if *ckpt != "" {
				if serr := search.SaveCheckpoint(*ckpt, eng.Checkpoint()); serr != nil {
					fmt.Fprintf(os.Stderr, "sacga: checkpoint: %v\n", serr)
				} else {
					fmt.Fprintf(os.Stderr, "sacga: checkpoint saved to %s; continue with -resume\n", *ckpt)
				}
			}
		case sched.FaultErr(err) && res != nil:
			exitCode = exitFault
			fmt.Fprintf(os.Stderr, "sacga: run degraded by evaluation faults: %v\nsacga: reporting the best-so-far front\n", err)
		default:
			fatal(err)
		}
	}
	if exitCode == exitOK && *maxEvals > 0 && res.Evals >= *maxEvals {
		exitCode = exitBudget
		fmt.Fprintf(os.Stderr, "sacga: evaluation budget reached (%d of %d)\n", res.Evals, *maxEvals)
	}
	front := res.Front

	fmt.Printf("problem=%s algo=%s generations=%d evaluations=%d front=%d feasible=%d\n",
		prob.Name(), *algo, res.Generations, res.Evals, len(front), front.FeasibleCount())
	if isCircuit {
		pts := make([]hypervolume.Point2, 0, len(front))
		for _, ind := range front {
			if p, ok := probspec.CircuitPoint(ind); ok {
				pts = append(pts, p)
			}
		}
		fmt.Printf("paper hypervolume: %.2f (x0.1 mW*pF, lower better)\n", probspec.CircuitHV(pts))
		for _, p := range pts {
			fmt.Printf("  CL=%6.3f pF  P=%7.4f mW\n", p.X*1e12, p.Y*1e3)
		}
	} else {
		for _, ind := range front {
			fmt.Printf("  f=%v\n", ind.Objectives)
		}
	}

	if *out != "" {
		rows := make([][]float64, 0, len(front))
		for _, ind := range front {
			row := append([]float64{}, ind.Objectives...)
			row = append(row, ind.Violation)
			rows = append(rows, row)
		}
		header := make([]string, 0, 3)
		for i := 0; i < prob.NumObjectives(); i++ {
			header = append(header, fmt.Sprintf("f%d", i))
		}
		header = append(header, "violation")
		if err := plot.WriteCSV(*out, header, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if exitCode != exitOK {
		if sh, ok := eng.(*shard.Islands); ok {
			sh.Close() // os.Exit skips the deferred close; Close is idempotent
		}
		os.Exit(exitCode)
	}
}

// Exit codes: scripts driving long optimization campaigns need to tell a
// cancelled run (retryable) from a fault-degraded one (investigate) from an
// exhausted budget (expected stop) without parsing stderr.
const (
	exitOK        = 0
	exitErr       = 1
	exitUsage     = 2
	exitCancelled = 3
	exitFault     = 4
	exitBudget    = 5
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sacga:", err)
	os.Exit(exitErr)
}

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "sacga:", err)
	os.Exit(exitUsage)
}

// runWorker serves the shard protocol on stdin/stdout until the
// coordinator closes the pipe. All diagnostics go to stderr — stdout
// belongs to the frame stream.
func runWorker() error {
	return shard.ServeWorker(os.Stdin, os.Stdout, shard.WorkerConfig{
		Build: func(spec string) (objective.Problem, error) {
			ps, err := probspec.Decode(spec)
			if err != nil {
				return nil, err
			}
			prob, _, err := ps.BuildValidated()
			return prob, err
		},
	})
}

// partitionRange picks the partitioned axis: the −CL objective for the
// integrator, otherwise the first objective with a generous unit range
// (benchmarks are normalized to ~[0,1]).
func partitionRange(prob objective.Problem, isCircuit bool) (lo, hi float64, obj int) {
	if isCircuit {
		lo, hi = sizing.ObjectiveRangeCL()
		return lo, hi, 1
	}
	return 0, 1, 0
}

// splitAddrs parses a -fleet value: comma-separated worker daemon
// addresses, blanks dropped so trailing commas are harmless.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

func parseSchedule(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sched := make([]int, 0, len(parts))
	for _, p := range parts {
		var m int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &m); err != nil || m < 1 {
			return nil, fmt.Errorf("bad schedule entry %q", p)
		}
		sched = append(sched, m)
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("empty schedule")
	}
	return sched, nil
}
