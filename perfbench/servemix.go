package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/rng"
	"sacga/internal/sched"
	"sacga/internal/search"
	"sacga/internal/serve"
	"sacga/internal/shard"
	"sacga/internal/sizing"
)

// The serve-mix workload: an in-process serve.Server with two slots and a
// durable state directory, driven over HTTP by six tenants in a closed
// loop — each submits its next job when it sees its previous one end, like
// an engineer iterating on a design. Submissions share one keep-alive
// connection; GET /jobs status polls use the other. Sharded jobs draw on a
// shared fleet of two worker daemons on loopback TCP. It is the only
// workload that exercises serve — admission, the turn queue, the
// hypervolume score every turn, durable checkpoint writes alongside status
// reads — and it runs shard over TCP, on a pool the tenants share, with a
// serve slot held for each epoch.
const (
	serveTenants         = 6
	serveSlots           = 2
	serveDaemons         = 2
	serveCheckpointEvery = 20
	servePollEvery       = 25 * time.Millisecond
	serveJobTimeout      = 2 * time.Minute
)

type jobKind int

const (
	kindCircuit jobKind = iota
	kindFunction
	kindSharded
)

// perTenant is each tenant's job count by kind — half circuit, a third
// benchmark functions, a sixth sharded: 6 × 36 = 216 jobs. Many short jobs
// rather than few long ones keep the batch's tail, when fewer jobs than
// slots remain, a small share of its wall time.
var perTenant = [...]int{kindCircuit: 18, kindFunction: 12, kindSharded: 6}

// jobSizes are the jobs' options by kind; circuit jobs carry 8 robustness
// samples.
var jobSizes = [...]search.JobOptions{
	kindCircuit:  {PopSize: 60, Generations: 25},
	kindFunction: {PopSize: 100, Generations: 50},
	kindSharded:  {PopSize: 40, Generations: 20},
}

// shardedParams configures every sharded job's replica ensemble; the same
// JSON decodes into sched.IslandsParams for its in-process twin.
const shardedParams = `{"Algo":"nsga2","MigrationEvery":10,"Migrants":2,"Replicas":4}`

// tenantMix draws each tenant's job sequence from the workload seed:
// integrator jobs (8 robustness samples, a grade from the 20-step ladder,
// nsga2 or sacga), zdt1, zdt2, zdt3 or dtlz2 jobs (nsga2 or sacga) and
// sharded-islands zdt1 jobs on the shared fleet, in the proportions of
// perTenant and a seeded order.
func tenantMix(seed int64) [][]serve.JobRequest {
	r := rng.Derive(seed, "perfbench/serve-mix")
	mix := make([][]serve.JobRequest, serveTenants)
	for t := range mix {
		var kinds []jobKind
		for k, n := range perTenant {
			for i := 0; i < n; i++ {
				kinds = append(kinds, jobKind(k))
			}
		}
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			mix[t] = append(mix[t], drawJob(r, k))
		}
	}
	return mix
}

func drawJob(r *rng.Stream, kind jobKind) serve.JobRequest {
	opts := jobSizes[kind]
	opts.Seed = int64(r.Intn(1<<30)) + 1
	engine := "nsga2"
	if r.Bool(0.5) {
		engine = "sacga"
	}
	req := serve.JobRequest{Engine: engine, Options: opts}
	// sacga partitions one objective axis, as cmd/sacga configures it: the
	// integrator's -CL axis, a benchmark's first objective over [0, 1].
	axis, lo, hi := 0, 0.0, 1.0
	switch kind {
	case kindCircuit:
		req.Problem = probspec.Spec{Name: "integrator", Grade: 1 + r.Intn(20), Robust: 8, Seed: opts.Seed}
		axis = 1
		lo, hi = sizing.ObjectiveRangeCL()
	case kindFunction:
		req.Problem = probspec.Spec{Name: []string{"zdt1", "zdt2", "zdt3", "dtlz2"}[r.Intn(4)]}
	default:
		req.Problem = probspec.Spec{Name: "zdt1"}
		req.Engine = shard.NameShardedIslands
		req.Params = json.RawMessage(shardedParams)
		return req
	}
	if engine == "sacga" {
		// A map of numbers always encodes.
		req.Params, _ = json.Marshal(map[string]any{
			"Partitions": 8, "PartitionObjective": axis, "PartitionLo": lo, "PartitionHi": hi,
			"GentMax": opts.Generations / 4,
		})
	}
	return req
}

func kindOf(req serve.JobRequest) jobKind {
	switch {
	case req.Engine == shard.NameShardedIslands:
		return kindSharded
	case req.Problem.Name == "integrator":
		return kindCircuit
	}
	return kindFunction
}

func runServeMix(e *env) (*outcome, error) {
	o := newOutcome()
	mix := tenantMix(e.seed)
	var njobs int64
	for _, row := range mix {
		njobs += int64(len(row))
	}

	// Set-up: spawn the daemons and handshake the fleet pool, start a
	// server on a fresh state directory and open both client connections.
	// Repeated; the last one serves the first measured batch.
	var (
		setups []float64
		f      *fleetSet
		s      *jobServer
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
			f.stop()
		}
		dir, err := e.subdir(fmt.Sprintf("fleet-%d", i))
		if err != nil {
			return o, err
		}
		start := time.Now()
		if f, err = startFleet(e.self, dir, false, nil); err != nil {
			return o, fmt.Errorf("set-up: %w", err)
		}
		if s, err = startServer(filepath.Join(e.dir, fmt.Sprintf("state-%d", i)), f.pool, nil); err != nil {
			f.stop()
			return o, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	// Measured: closed-loop batches, each on a fresh server, while the
	// budget lasts.
	var (
		batches []*batch
		walls   []float64
	)
	start := time.Now()
	for i := 0; another(start, e.budget, walls); i++ {
		if s == nil {
			var err error
			if s, err = startServer(filepath.Join(e.dir, fmt.Sprintf("state-batch-%d", i)), f.pool, nil); err != nil {
				f.stop()
				return o, err
			}
		}
		b := runBatch(s, mix)
		o.failed += b.settle(fetchResults(s, b))
		o.attempted += njobs
		s.stop()
		s = nil
		batches = append(batches, b)
		walls = append(walls, b.wall().Seconds())
	}
	rssKB := maxRSSKB()
	if err := f.stop(); err != nil {
		return o, fmt.Errorf("stop worker daemons: %w", err)
	}
	reports, err := readReports(f.dir)
	if err != nil {
		return o, err
	}

	first := batches[0]
	for i, b := range batches {
		for _, p := range b.problems {
			o.check(fmt.Sprintf("batch %d", i+1), errors.New(p))
		}
		if err := match(b.digest, first.digest); err != nil {
			o.failed += njobs
			o.check(fmt.Sprintf("batch %d fronts equal batch 1's", i+1), err)
		}
	}
	for _, r := range reports {
		o.failed += r.Retries
	}
	o.failed = min(o.failed, o.attempted)
	var recorded struct {
		JobsDigest string `json:"jobs_digest"`
	}
	if ok, err := reference("serve-mix", e.seed, &recorded); err != nil {
		return o, err
	} else if ok {
		o.check("job fronts digest equals the recorded reference", match(first.digest, recorded.JobsDigest))
	} else {
		o.check("sample jobs re-run solo give the server's fronts", checkSample(mix, first, nil, nil, nil))
	}
	var (
		lat    []float64
		perRun [][]float64
		done   = true
	)
	for _, b := range batches {
		lat = append(lat, b.jobs...)
		perRun = append(perRun, b.jobs)
		done = done && len(b.problems) == 0
	}
	if done {
		o.check(fmt.Sprintf("%d batches of %d jobs: every job done", len(batches), njobs), nil)
	}
	var evals int64
	for _, r := range first.results {
		evals += r.Evals
	}
	wall := median(walls)
	jobs := summarize(lat)
	o.e2e["wall_s"] = wall
	o.e2e["evals_per_s"] = float64(evals) / wall
	o.e2e["latency_ms_p50"] = unitPercentile(perRun, 0.5)
	o.e2e["latency_ms_p90"] = unitPercentile(perRun, 0.9)
	o.e2e["peak_rss_mb"] = float64(rssKB+workerRSSKB(reports)) / 1024
	o.note("wall_s: median of %d batches of %d jobs, %d evaluations each", len(batches), njobs, evals)
	o.note("latency_ms: one job, submission until a status poll sees it end, per-batch percentiles' median; pooled %v", jobs)
	o.note("admission %v; status poll %v (ms)", summarize(first.admit), summarize(first.status))
	o.note("jobs digest %s", first.digest)
	if e.trace {
		return o, traceServe(e, o, mix, wall, first.digest)
	}
	return o, nil
}

// traceServe repeats one batch with a traced problem builder and a
// counting fleet, then re-runs the reference sample solo through traced
// drivers, and derives the per-layer metrics.
func traceServe(e *env, o *outcome, mix [][]serve.JobRequest, untracedWall float64, want string) error {
	dir, err := e.subdir("fleet-traced")
	if err != nil {
		return err
	}
	counts := &fleetCounters{}
	f, err := startFleet(e.self, dir, true, counts)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	tr := &tracer{}
	var (
		mu      sync.Mutex
		parents []int64 // one per problem the server built
	)
	build := func(spec probspec.Spec) (objective.Problem, bool, error) {
		prob, circuit, err := spec.BuildValidated()
		if err != nil {
			return nil, false, err
		}
		tp := &tracedProblem{Problem: prob, tr: tr}
		id := tr.open()
		tp.parent.Store(id)
		mu.Lock()
		parents = append(parents, id)
		mu.Unlock()
		return tp, circuit, nil
	}
	s, err := startServer(filepath.Join(e.dir, "state-traced"), f.pool, build)
	if err != nil {
		f.stop()
		return err
	}
	b := runBatch(s, mix)
	b.settle(fetchResults(s, b))
	s.stop()
	for _, p := range b.problems {
		o.check("traced batch", errors.New(p))
	}
	o.check("traced batch fronts equal the untraced batch's", match(b.digest, want))
	fleetBytes, dials := counts.bytes.Load(), counts.dials.Load()
	stats := f.pool.Stats()

	// The reference sample solo, over the same fleet: its driver, engine
	// and problem spans give the search and shard layers' numbers, and its
	// sharded runs' replica checkpoints feed the checkpoint probe.
	var p ckptProbe
	probe := func(req serve.JobRequest, eng search.Engine) {
		if eng.Generation()%shardProbeEvery != 0 {
			return
		}
		opts := req.Options.Options()
		opts.Normalize()
		inner := eng.Checkpoint().State.(*sched.IslandsSnapshot).Inner
		if err := p.addSet(inner, replicaOptions(opts), buildZDT1, false); err != nil {
			o.check("checkpoint probe", err)
		}
	}
	o.check("sample jobs re-run solo over the fleet give the server's fronts", checkSample(mix, b, f.pool, tr, probe))
	if err := f.stop(); err != nil {
		return fmt.Errorf("stop worker daemons: %w", err)
	}
	reports, err := readReports(dir)
	if err != nil {
		return err
	}

	ix := newIndex(tr.spans)
	var busy, quarantined, evals, retries int64
	for _, id := range parents {
		busy += ix.coveredID(id, "objective.eval")
	}
	var reqBusy, reqEval []float64
	reqs := workerRequests(reports)
	for _, q := range reqs {
		if q.Start < b.start || q.End > b.end {
			continue // a solo replay's request
		}
		busy += q.eval
		reqBusy = append(reqBusy, ms(q.dur()))
		reqEval = append(reqEval, ms(q.eval))
		if q.Attempt > 0 {
			retries++
		}
	}
	for _, r := range reports {
		quarantined += r.Quarantined
	}
	for _, r := range b.results {
		evals += r.Evals
	}
	var served int64
	for _, st := range stats {
		served += st.EpochsServed
	}
	wall := b.wall().Seconds()
	layers := o.layers
	layers["objective.evals"] = float64(evals)
	layers["objective.busy_s"] = secs(busy)
	layers["objective.us_per_eval"] = float64(busy) / 1e3 / float64(evals)
	layers["objective.quarantined"] = float64(quarantined)
	layers["search.step_ms_p50"] = median(ix.durations("search.step"))
	layers["search.self_ms_p50"] = median(ix.selfTimes("search.step", "objective.eval"))
	p.fill(layers)
	layers["shard.step_ms_p50"] = median(ix.childDurations("epoch", "shard.step"))
	layers["shard.pool_view_ms_p50"] = median(ix.childDurations("epoch", "shard.pool_view"))
	layers["shard.requests"] = float64(len(reqBusy))
	layers["shard.retries"] = float64(retries)
	layers["shard.worker_busy_ms_p50"] = median(reqBusy)
	layers["shard.worker_eval_ms_p50"] = median(reqEval)
	layers["shard.coord_self_ms_p50"] = median(coordSelf(ix, reqs))
	if served > 0 {
		layers["fleet.bytes_per_epoch"] = float64(fleetBytes) / (float64(served) / shardReplicas)
	}
	layers["fleet.dials"] = float64(dials)
	layers["fleet.served_imbalance"] = imbalance(stats)
	layers["serve.admit_ms_p50"] = median(b.admit)
	layers["serve.admit_ms_p90"] = quantile(b.admit, 0.9)
	layers["serve.queue_wait_ms_p50"] = median(b.queueWait)
	layers["serve.status_ms_p50"] = median(b.status)
	layers["serve.eval_share"] = secs(busy) / (serveSlots * wall)
	layers["trace.overhead"] = wall / untracedWall
	o.note("trace.overhead: traced batch %.3f s / untraced batch %.3f s (median)", wall, untracedWall)
	return nil
}

// checkSample re-runs the reference sample — the first two jobs of each
// kind in tenant order — solo, and compares each front with the one the
// server returned in b. probe, when set, sees each sharded replay's engine
// after every epoch.
func checkSample(mix [][]serve.JobRequest, b *batch, pool *fleet.Pool, tr *tracer, probe func(serve.JobRequest, search.Engine)) error {
	var seen [len(perTenant)]int
	for t, row := range mix {
		for k, req := range row {
			if seen[kindOf(req)] == 2 {
				continue
			}
			seen[kindOf(req)]++
			var pr func(search.Engine)
			if probe != nil && kindOf(req) == kindSharded {
				pr = func(eng search.Engine) { probe(req, eng) }
			}
			front, err := soloFront(req, pool, tr, pr)
			if err != nil {
				return fmt.Errorf("solo %s job on %s: %w", req.Engine, req.Problem.Name, err)
			}
			id := b.ids[t][k]
			if err := match(frontDigest(front), frontDigest(b.results[id].Front)); err != nil {
				return fmt.Errorf("job %s (%s on %s): %w", id, req.Engine, req.Problem.Name, err)
			}
		}
	}
	return nil
}

// soloFront runs one tenant job outside the server and returns its front
// in wire form. A sharded job runs over pool, or, without one, as the
// in-process parallel-islands ensemble it is bit-identical to.
func soloFront(req serve.JobRequest, pool *fleet.Pool, tr *tracer, probe func(search.Engine)) ([]serve.FrontPoint, error) {
	prob, _, err := req.Problem.BuildValidated()
	if err != nil {
		return nil, err
	}
	opts := req.Options.Options()
	name := req.Engine
	var extra any
	switch {
	case req.Engine == shard.NameShardedIslands && pool == nil:
		name, extra = sched.NameParallelIslands, new(sched.IslandsParams)
	case req.Engine == shard.NameShardedIslands:
		extra = &shard.Params{Pool: pool, Spec: req.Problem.Encode()}
	case len(req.Params) > 0:
		extra, _ = search.NewExtra(req.Engine)
	}
	if extra != nil {
		if err := json.Unmarshal(req.Params, extra); err != nil {
			return nil, fmt.Errorf("params: %w", err)
		}
		opts.Extra = extra
	}
	eng, err := search.New(name)
	if err != nil {
		return nil, err
	}
	if sh, ok := eng.(*shard.Islands); ok {
		defer sh.Close()
	}
	stepName, layer := "search.step", ""
	var tp *tracedProblem
	if name == shard.NameShardedIslands {
		stepName, layer = "epoch", "shard"
	} else if tr != nil {
		tp = &tracedProblem{Problem: prob, tr: tr}
		prob = tp
	}
	if err := eng.Init(objective.NewCounter(prob), opts); err != nil {
		return nil, err
	}
	_, res, err := drive(eng, tr, tp, stepName, layer, 0, probe)
	if err != nil {
		return nil, err
	}
	return wireFront(res.Front), nil
}

// fleetSet is serve-mix's worker fleet: the daemons and the pool over
// them.
type fleetSet struct {
	dir     string
	daemons []*daemon
	pool    *fleet.Pool
}

// startFleet spawns the daemons, reporting into dir, and dials and
// handshakes a pool over them. Traced, the daemons record spans and the
// transports count into counts.
func startFleet(self, dir string, traced bool, counts *fleetCounters) (*fleetSet, error) {
	f := &fleetSet{dir: dir}
	ts := make([]fleet.Transport, 0, serveDaemons)
	for i := 0; i < serveDaemons; i++ {
		d, err := startDaemon(self, workerEnv(dir, traced))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		var t fleet.Transport = &fleet.TCPTransport{Address: d.addr}
		if counts != nil {
			t = countingTransport{Transport: t, counts: counts}
		}
		ts = append(ts, t)
	}
	f.pool = fleet.NewPool(ts...)
	if err := warm(f.pool); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop closes the pool, then the daemons, which write their reports.
func (f *fleetSet) stop() error {
	if f.pool != nil {
		f.pool.Close()
	}
	var first error
	for _, d := range f.daemons {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// jobServer is one serve.Server behind a loopback HTTP listener, with the
// two keep-alive client connections the tenants share.
type jobServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	submit *http.Client // POST /jobs
	poll   *http.Client // GET /jobs and results
}

func startServer(dir string, pool *fleet.Pool, build func(probspec.Spec) (objective.Problem, bool, error)) (*jobServer, error) {
	srv, err := serve.New(serve.Config{
		Dir: dir, Slots: serveSlots, Fleet: pool, CheckpointEvery: serveCheckpointEvery, Build: build,
		Workers: 1, // the slots already occupy every CPU
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &jobServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), submit: oneConnClient(), poll: oneConnClient(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	// Open both connections now, so the measured phase starts on warm ones.
	for _, c := range []*http.Client{s.submit, s.poll} {
		if _, err := get(c, s.url+"/healthz"); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// oneConnClient is an HTTP client that keeps exactly one connection alive
// and queues concurrent requests on it.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}
}

// stop drains the server and closes the listener and both connections.
func (s *jobServer) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) // past the timeout the connections are dropped, which is all stop needs
	<-s.served
	s.submit.CloseIdleConnections()
	s.poll.CloseIdleConnections()
}

// get fetches url and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// submit POSTs one job over the submit connection and returns its ID, when
// the request was sent, and when the answer arrived.
func submit(s *jobServer, req serve.JobRequest) (id string, sent, admitted int64, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, 0, err
	}
	sent = now()
	resp, err := s.submit.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", sent, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	admitted = now()
	if err != nil {
		return "", sent, admitted, err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", sent, admitted, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", sent, admitted, err
	}
	return sr.ID, sent, admitted, nil
}

// batch is one closed-loop pass of the tenant mix against one server.
type batch struct {
	start, end int64      // first submission, last end seen (Unix ns)
	ids        [][]string // job IDs by tenant and submission ("" = refused)
	jobs       []float64  // submission until a poll sees the job end, ms
	admit      []float64  // POST /jobs round trips, ms
	status     []float64  // GET /jobs round trips, ms
	queueWait  []float64  // admission until a poll sees the job out of the queue, ms
	problems   []string   // refusals, timeouts, failed polls and fetches
	results    map[string]serve.ResultView
	digest     string // over every job's front, in tenant and submission order
}

func (b *batch) wall() time.Duration { return time.Duration(b.end - b.start) }

// waiter is a tenant waiting for its job to end.
type waiter struct {
	admitted int64      // when the POST returned
	running  bool       // a poll has seen the job leave the queue
	seen     chan int64 // when a poll first saw the job end
}

// jobStatus is the part of a GET /jobs entry the poller reads.
type jobStatus struct {
	ID    string      `json:"id"`
	State serve.State `json:"state"`
}

// runBatch plays the tenant mix against s in a closed loop: each tenant
// submits a job over the shared submit connection and waits until the
// poller — one GET /jobs loop on the other connection — sees it end, then
// submits its next.
func runBatch(s *jobServer, mix [][]serve.JobRequest) *batch {
	b := &batch{ids: make([][]string, len(mix))}
	var (
		mu      sync.Mutex
		waiting = map[string][]*waiter{}
		last    atomic.Int64
		wg      sync.WaitGroup
	)
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			t0 := now()
			body, err := get(s.poll, s.url+"/jobs")
			t1 := now()
			var views []jobStatus
			if err == nil {
				err = json.Unmarshal(body, &views)
			}
			mu.Lock()
			if err != nil {
				b.problems = append(b.problems, "status poll: "+err.Error())
			} else {
				b.status = append(b.status, ms(t1-t0))
			}
			for _, v := range views {
				for _, w := range waiting[v.ID] {
					if !w.running && v.State != serve.StateQueued {
						w.running = true
						b.queueWait = append(b.queueWait, ms(t1-w.admitted))
					}
					if v.State.Terminal() {
						w.seen <- t1
					}
				}
				if v.State.Terminal() {
					delete(waiting, v.ID)
				}
			}
			mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(servePollEvery):
			}
		}
	}()
	b.start = now()
	for t := range mix {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range mix[t] {
				id, sent, admitted, err := submit(s, req)
				mu.Lock()
				b.ids[t] = append(b.ids[t], id)
				if err != nil {
					b.problems = append(b.problems, err.Error())
					mu.Unlock()
					continue
				}
				w := &waiter{admitted: admitted, seen: make(chan int64, 1)}
				b.admit = append(b.admit, ms(admitted-sent))
				waiting[id] = append(waiting[id], w)
				mu.Unlock()
				select {
				case at := <-w.seen:
					mu.Lock()
					b.jobs = append(b.jobs, ms(at-sent))
					mu.Unlock()
					for cur := last.Load(); at > cur && !last.CompareAndSwap(cur, at); cur = last.Load() {
					}
				case <-time.After(serveJobTimeout):
					mu.Lock()
					b.problems = append(b.problems, fmt.Sprintf("job %s: no end seen within %v", id, serveJobTimeout))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-polled
	b.end = max(last.Load(), b.start)
	return b
}

// fetchResults reads every job's terminal result over the poll
// connection; failures are recorded as the batch's problems.
func fetchResults(s *jobServer, b *batch) map[string]serve.ResultView {
	out := map[string]serve.ResultView{}
	for _, row := range b.ids {
		for _, id := range row {
			if _, ok := out[id]; ok || id == "" {
				continue
			}
			body, err := get(s.poll, s.url+"/jobs/"+id+"/result")
			var rv serve.ResultView
			if err == nil {
				err = json.Unmarshal(body, &rv)
			}
			if err != nil {
				b.problems = append(b.problems, fmt.Sprintf("result %s: %v", id, err))
				continue
			}
			out[id] = rv
		}
	}
	return out
}

// settle records the jobs' results and the digest over their fronts, and
// returns how many jobs failed: refused, never seen to end, or ended in
// any state but done.
func (b *batch) settle(results map[string]serve.ResultView) int64 {
	b.results = results
	d := newDigester()
	var failed int64
	for t, row := range b.ids {
		for k, id := range row {
			res, ok := results[id]
			if !ok || res.State != serve.StateDone {
				failed++
				if ok {
					b.problems = append(b.problems, fmt.Sprintf("job %s ended %s: %s", id, res.State, res.Error))
				}
			}
			d.u(uint64(t))
			d.u(uint64(k))
			d.front(res.Front)
		}
	}
	b.digest = d.sum()
	return failed
}
