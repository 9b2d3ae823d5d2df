package main

import (
	"fmt"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/sched"
	"sacga/internal/search"
	"sacga/internal/shard"
)

// The shard-zdt1 workload: a sharded-islands run on zdt1 over two stdio
// worker processes, driven step by step through search.Driver — the
// `sacga -algo parislands -shard 2` path: four nsga2 replicas, population
// 100, ring migration every 10 epochs. zdt1 evaluations are almost free,
// so the protocol does nearly all the work: the gob checkpoint codec,
// frames, worker restores and coordinator mirror restores. The generation
// count is part of the workload, not a length knob: every restore replays
// the RNG from its seed, so an epoch costs more the later it runs.
const (
	shardGenerations = 200
	shardPop         = 100
	shardReplicas    = 4
	shardProcs       = 2
	shardProbeEvery  = 10 // epochs between the traced pass's checkpoint probes
)

var shardSpec = probspec.Spec{Name: "zdt1"}

// shardOptions configures the sharded run over pool as cmd/sacga -algo
// parislands -shard does.
func shardOptions(seed int64, pool *fleet.Pool) search.Options {
	return search.Options{PopSize: shardPop, Generations: shardGenerations, Seed: seed,
		Extra: &shard.Params{
			Replicas: shardReplicas, Algo: "nsga2", MigrationEvery: 10, Migrants: 2,
			Spec: shardSpec.Encode(), Pool: pool,
			EpochDeadline: 5 * time.Minute, HeartbeatTimeout: 15 * time.Second,
		}}
}

// inprocOptions is the same ensemble for the in-process parallel-islands
// scheduler: the bit-identity reference.
func inprocOptions(seed int64) search.Options {
	return search.Options{PopSize: shardPop, Generations: shardGenerations, Seed: seed,
		Extra: &sched.IslandsParams{Replicas: shardReplicas, Algo: "nsga2", MigrationEvery: 10, Migrants: 2}}
}

func runShardZDT1(e *env) (*outcome, error) {
	o := newOutcome()
	opsPer := int64(shardReplicas * (shardGenerations + 1)) // replica step requests per run

	// Set-up: build the problem, spawn both workers and complete their
	// handshakes. Repeated; the last pool serves the measured runs.
	var (
		setups []float64
		pool   *fleet.Pool
		dir    string
	)
	for i := 0; i < setupReps; i++ {
		if pool != nil {
			pool.Close()
		}
		var err error
		if dir, err = e.subdir(fmt.Sprintf("workers-%d", i)); err != nil {
			return o, err
		}
		start := time.Now()
		if _, _, err := shardSpec.BuildValidated(); err != nil {
			return o, err
		}
		pool = procPool(e.self, dir, false, nil)
		if err := warm(pool); err != nil {
			pool.Close()
			return o, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	runs := measureSharded(e, pool, nil, nil)
	rssKB := maxRSSKB()
	pool.Close()
	reports, err := readReports(dir)
	if err != nil {
		return o, err
	}

	ref, err := runInproc(e.seed)
	if err != nil {
		return o, fmt.Errorf("in-process reference: %w", err)
	}
	var recorded struct {
		FrontDigest string `json:"front_digest"`
	}
	if ok, err := reference("shard-zdt1", e.seed, &recorded); err != nil {
		return o, err
	} else if ok {
		o.check("in-process front equals the recorded reference", match(ref.digest, recorded.FrontDigest))
	}
	var walls, epochs []float64
	var perRun [][]float64
	var evals int64
	bad := 0
	for i, r := range runs {
		o.attempted += opsPer
		walls = append(walls, r.wall.Seconds())
		epochs = append(epochs, r.epochs...)
		perRun = append(perRun, r.epochs)
		err := r.err
		if err == nil {
			err = match(r.digest, ref.digest)
			evals = r.evals
		}
		if err != nil {
			bad++
			o.failed += opsPer
			o.check(fmt.Sprintf("sharded run %d", i+1), err)
		}
	}
	if bad == 0 {
		o.check(fmt.Sprintf("%d sharded runs: final pooled front equals the in-process parallel-islands front", len(runs)), nil)
	}
	for _, r := range reports {
		o.failed += r.Retries
	}
	o.failed = min(o.failed, o.attempted)

	wall := median(walls)
	lat := summarize(epochs)
	o.e2e["wall_s"] = wall
	o.e2e["evals_per_s"] = float64(evals) / wall
	o.e2e["latency_ms_p50"] = unitPercentile(perRun, 0.5)
	o.e2e["latency_ms_p90"] = unitPercentile(perRun, 0.9)
	o.e2e["peak_rss_mb"] = float64(rssKB+workerRSSKB(reports)) / 1024
	o.note("wall_s: median of %d runs of %d epochs (Init included), %d evaluations each", len(runs), shardGenerations, evals)
	o.note("latency_ms: one epoch (search.Driver.Step), per-run percentiles' median; pooled %v", lat)
	o.note("in-process parallel-islands epoch: %v; front digest %s", summarize(ref.epochs), ref.digest)
	if e.trace {
		return o, traceShard(e, o, wall, median(epochs), ref)
	}
	return o, nil
}

// procPool is shard-zdt1's worker pool: shardProcs copies of this binary
// in -worker mode, spawned on first use and reporting into dir. Traced,
// the workers record spans and the transports count into counts.
func procPool(self, dir string, traced bool, counts *fleetCounters) *fleet.Pool {
	ts := make([]fleet.Transport, shardProcs)
	for i := range ts {
		ts[i] = &fleet.ProcTransport{
			Argv:  []string{self, "-worker"},
			Env:   workerEnv(dir, traced),
			Hello: fleet.HandshakeConfig{Problem: shardSpec.Encode()},
		}
		if counts != nil {
			ts[i] = countingTransport{Transport: ts[i], counts: counts}
		}
	}
	return fleet.NewPool(ts...)
}

// shardRun is one sharded run's measurements.
type shardRun struct {
	wall   time.Duration
	epochs []float64 // Driver.Step durations, ms
	evals  int64
	digest string
	err    error
}

// measureSharded repeats sharded runs over pool while the budget lasts;
// probe, when set, sees the first run's engine after every epoch.
func measureSharded(e *env, pool *fleet.Pool, tr *tracer, probe func(search.Engine)) []shardRun {
	var (
		runs  []shardRun
		walls []float64
	)
	start := time.Now()
	for another(start, e.budget, walls) {
		r := runSharded(pool, e.seed, tr, probe)
		runs = append(runs, r)
		walls = append(walls, r.wall.Seconds())
		if r.err != nil {
			break
		}
		probe = nil
	}
	return runs
}

// runSharded initializes a sharded-islands engine over pool and drives it
// to completion. Traced, every Driver.Step is an epoch span over the
// engine's shard.step and shard.pool_view spans.
func runSharded(pool *fleet.Pool, seed int64, tr *tracer, probe func(search.Engine)) shardRun {
	var r shardRun
	prob, _, err := shardSpec.BuildValidated()
	if err != nil {
		r.err = err
		return r
	}
	eng := new(shard.Islands)
	defer eng.Close()
	start := time.Now()
	initStart := now()
	if err := eng.Init(objective.NewCounter(prob), shardOptions(seed, pool)); err != nil {
		r.err = fmt.Errorf("init: %w", err)
		return r
	}
	if tr != nil {
		tr.add(span{ID: tr.open(), Name: "shard.init", Start: initStart, End: now()})
	}
	steps, res, err := drive(eng, tr, nil, "epoch", "shard", 0, probe)
	r.wall, r.epochs, r.err = time.Since(start), steps, err
	if err == nil {
		r.evals, r.digest = res.Evals, popDigest(res.Front)
	}
	return r
}

// replicaOptions gives replica i of an ensemble run under the normalized
// opts its options, as both schedulers derive them.
func replicaOptions(opts search.Options) func(int) search.Options {
	return func(i int) search.Options { return sched.ReplicaOptions(opts, shardReplicas, i, nil) }
}

func buildZDT1() (objective.Problem, error) {
	prob, _, err := shardSpec.BuildValidated()
	return prob, err
}

// inprocRun is the reference run: the same ensemble stepped in process.
type inprocRun struct {
	digest string
	epochs []float64
}

func runInproc(seed int64) (inprocRun, error) {
	prob, _, err := shardSpec.BuildValidated()
	if err != nil {
		return inprocRun{}, err
	}
	eng := new(sched.ParallelIslands)
	if err := eng.Init(objective.NewCounter(prob), inprocOptions(seed)); err != nil {
		return inprocRun{}, err
	}
	epochs, res, err := drive(eng, nil, nil, "", "", 0, nil)
	if err != nil {
		return inprocRun{}, err
	}
	return inprocRun{digest: popDigest(res.Front), epochs: epochs}, nil
}

// traceShard repeats the measured runs on a fresh, traced worker pool and
// derives the per-layer metrics: spans from the coordinator's driver,
// engine and transport wrappers, the workers' request spans, and
// in-process probes of the first run's replica checkpoints.
func traceShard(e *env, o *outcome, untracedWall, untracedEpoch float64, ref inprocRun) error {
	dir, err := e.subdir("workers-traced")
	if err != nil {
		return err
	}
	counts := &fleetCounters{}
	pool := procPool(e.self, dir, true, counts)
	if err := warm(pool); err != nil {
		pool.Close()
		return fmt.Errorf("traced set-up: %w", err)
	}
	tr := &tracer{}
	var sampled [][]*search.Checkpoint
	probe := func(eng search.Engine) {
		if eng.Generation()%shardProbeEvery == 0 {
			sn := eng.Checkpoint().State.(*sched.IslandsSnapshot)
			sampled = append(sampled, append([]*search.Checkpoint(nil), sn.Inner...))
		}
	}
	runs := measureSharded(e, pool, tr, probe)
	stats := pool.Stats()
	pool.Close()
	reports, err := readReports(dir)
	if err != nil {
		return err
	}
	var walls []float64
	for i, r := range runs {
		err := r.err
		if err == nil {
			err = match(r.digest, ref.digest)
		}
		if err != nil {
			o.check(fmt.Sprintf("traced sharded run %d", i+1), err)
		}
		walls = append(walls, r.wall.Seconds())
	}

	ix := newIndex(tr.spans)
	reqs := workerRequests(reports)
	var busy, retries, evals, quarantined int64
	var reqBusy, reqEval []float64
	for _, q := range reqs {
		busy += q.eval
		reqBusy = append(reqBusy, ms(q.dur()))
		reqEval = append(reqEval, ms(q.eval))
		if q.Attempt > 0 {
			retries++
		}
	}
	for _, r := range reports {
		evals += r.Evals
		quarantined += r.Quarantined
	}
	stepP50 := median(ix.childDurations("epoch", "shard.step"))
	viewP50 := median(ix.childDurations("epoch", "shard.pool_view"))
	layers := o.layers
	layers["objective.evals"] = float64(evals)
	layers["objective.busy_s"] = secs(busy)
	layers["objective.us_per_eval"] = float64(busy) / 1e3 / float64(evals)
	layers["objective.quarantined"] = float64(quarantined)
	layers["shard.step_ms_p50"] = stepP50
	layers["shard.pool_view_ms_p50"] = viewP50
	layers["shard.requests"] = float64(len(reqs))
	layers["shard.retries"] = float64(retries)
	layers["shard.worker_busy_ms_p50"] = median(reqBusy)
	layers["shard.worker_eval_ms_p50"] = median(reqEval)
	layers["shard.coord_self_ms_p50"] = median(coordSelf(ix, reqs))
	layers["shard.inproc_epoch_ms_p50"] = median(ref.epochs)
	layers["fleet.bytes_per_epoch"] = float64(counts.bytes.Load()) / float64(len(ix.byName["epoch"]))
	layers["fleet.dials"] = float64(counts.dials.Load())
	layers["fleet.served_imbalance"] = imbalance(stats)

	var p ckptProbe
	opts := shardOptions(e.seed, nil)
	opts.Normalize()
	for _, inner := range sampled {
		if err := p.addSet(inner, replicaOptions(opts), buildZDT1, true); err != nil {
			return err
		}
	}
	p.fill(layers)
	tracedWall := median(walls)
	layers["trace.overhead"] = tracedWall / untracedWall
	o.note("accounting: shard.step p50 %.3f ms + shard.pool_view p50 %.3f ms = %.3f ms, against an epoch p50 of %.3f ms traced and %.3f ms untraced",
		stepP50, viewP50, stepP50+viewP50, median(ix.durations("epoch")), untracedEpoch)
	o.note("trace.overhead: traced run %.3f s / untraced run %.3f s (medians)", tracedWall, untracedWall)
	return nil
}
