package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/shard"
)

// The environment the benchmark hands the worker processes it spawns.
const (
	envDir   = "PERFBENCH_DIR"   // where the worker writes its report on exit
	envTrace = "PERFBENCH_TRACE" // "1": record spans
)

func workerEnv(dir string, traced bool) []string {
	trace := "0"
	if traced {
		trace = "1"
	}
	return []string{envDir + "=" + dir, envTrace + "=" + trace}
}

// workerReport is what a worker process writes when it exits: its peak
// memory, the requests it served and, traced, its spans.
type workerReport struct {
	MaxRSSKB    int64  `json:"max_rss_kb"`
	Requests    int64  `json:"requests"`
	Retries     int64  `json:"retries"`
	Evals       int64  `json:"evals"`
	Quarantined int64  `json:"quarantined"`
	Spans       []span `json:"spans,omitempty"`
}

// workerSide is the state a worker process keeps across its streams.
type workerSide struct {
	tr       *tracer // nil when untraced
	requests atomic.Int64
	retries  atomic.Int64
	mu       sync.Mutex
	probs    []*tracedProblem
}

func newWorkerSide() *workerSide {
	w := &workerSide{}
	if os.Getenv(envTrace) == "1" {
		w.tr = &tracer{}
	}
	return w
}

// config returns the shard.WorkerConfig for one stream. Its hooks count
// requests and, traced, record a worker.request span from the decoded
// request to the written reply, keyed by replica, epoch and attempt, with
// the stream's objective spans under it.
func (w *workerSide) config() shard.WorkerConfig {
	var (
		probs     []*tracedProblem // this stream's problems
		id, start int64            // the request in flight
	)
	return shard.WorkerConfig{
		Build: func(spec string) (objective.Problem, error) {
			prob, err := buildSpec(spec)
			if err != nil || w.tr == nil {
				return prob, err
			}
			tp := &tracedProblem{Problem: prob, tr: w.tr}
			tp.parent.Store(id)
			probs = append(probs, tp)
			w.mu.Lock()
			w.probs = append(w.probs, tp)
			w.mu.Unlock()
			return tp, nil
		},
		OnStep: func(si shard.StepInfo) {
			w.requests.Add(1)
			if si.Attempt > 0 {
				w.retries.Add(1)
			}
			if w.tr == nil {
				return
			}
			id, start = w.tr.open(), now()
			for _, tp := range probs {
				tp.parent.Store(id)
			}
		},
		AfterReply: func(si shard.StepInfo) {
			if w.tr == nil {
				return
			}
			w.tr.add(span{ID: id, Name: "worker.request", Start: start, End: now(),
				Replica: si.Replica, Epoch: si.Epoch, Attempt: si.Attempt, Init: si.Init})
		},
	}
}

func buildSpec(spec string) (objective.Problem, error) {
	ps, err := probspec.Decode(spec)
	if err != nil {
		return nil, err
	}
	prob, _, err := ps.BuildValidated()
	return prob, err
}

// writeReport saves the worker's report where the benchmark reads it.
func (w *workerSide) writeReport() error {
	dir := os.Getenv(envDir)
	if dir == "" {
		return nil
	}
	r := workerReport{MaxRSSKB: maxRSSKB(), Requests: w.requests.Load(), Retries: w.retries.Load()}
	if w.tr != nil {
		w.mu.Lock()
		for _, tp := range w.probs {
			r.Evals += tp.evals.Load()
			r.Quarantined += tp.quarantined.Load()
		}
		w.mu.Unlock()
		r.Spans = w.tr.spans
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("worker-%d.json", os.Getpid())), data, 0o644)
}

// runWorker serves the shard protocol on stdin/stdout until the
// coordinator closes the pipe, then writes the report.
func runWorker() error {
	w := newWorkerSide()
	err := shard.ServeWorker(os.Stdin, os.Stdout, w.config())
	if werr := w.writeReport(); err == nil {
		err = werr
	}
	return err
}

// runDaemon is a TCP worker daemon in the shape of cmd/sacgaw, on a
// loopback port: it prints its address on stdout, serves every accepted
// connection, and shuts down — closing its connections and writing its
// report — when its stdin closes.
func runDaemon() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr())
	go func() {
		io.Copy(io.Discard, os.Stdin) // returns when the benchmark closes the pipe
		ln.Close()
	}()
	w := newWorkerSide()
	var (
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
		wg    sync.WaitGroup
	)
	for {
		c, err := ln.Accept()
		if err != nil {
			break
		}
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A stream ends when its coordinator hangs up; a broken one
			// surfaces on the coordinator's side, which retries elsewhere.
			shard.ServeWorker(c, c, w.config())
			c.Close()
			mu.Lock()
			delete(conns, c)
			mu.Unlock()
		}()
	}
	mu.Lock()
	for c := range conns {
		c.Close()
	}
	mu.Unlock()
	wg.Wait()
	return w.writeReport()
}

// readReports loads every worker report in dir.
func readReports(dir string) ([]workerReport, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "worker-*.json"))
	if err != nil {
		return nil, err
	}
	reports := make([]workerReport, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &reports[i]); err != nil {
			return nil, fmt.Errorf("worker report %s: %w", p, err)
		}
	}
	return reports, nil
}

// workerRSSKB sums the workers' peak resident sets.
func workerRSSKB(reports []workerReport) int64 {
	var kb int64
	for _, r := range reports {
		kb += r.MaxRSSKB
	}
	return kb
}

// workerRequest is one request as a worker served it, with the objective
// time covered inside it.
type workerRequest struct {
	span
	eval int64
}

func workerRequests(reports []workerReport) []workerRequest {
	var out []workerRequest
	for _, r := range reports {
		ix := newIndex(r.Spans)
		for _, s := range ix.byName["worker.request"] {
			out = append(out, workerRequest{span: s, eval: ix.covered(s, "objective.eval")})
		}
	}
	return out
}

// coordSelf lists, per shard.step span under an epoch span, its duration
// minus the part the worker requests of that epoch cover: the
// coordinator's codec and transport time on the critical path.
func coordSelf(ix *index, reqs []workerRequest) []float64 {
	byEpoch := map[int][][2]int64{}
	for _, q := range reqs {
		if !q.Init {
			byEpoch[q.Epoch] = append(byEpoch[q.Epoch], [2]int64{q.Start, q.End})
		}
	}
	var out []float64
	for _, ep := range ix.byName["epoch"] {
		for _, st := range ix.children[ep.ID] {
			if st.Name == "shard.step" {
				out = append(out, ms(st.dur()-unionNanos(byEpoch[ep.Epoch], st.Start, st.End)))
			}
		}
	}
	return out
}

// warm dials every pool slot — spawn or connect, then handshake — so the
// measured runs start against ready workers.
func warm(pool *fleet.Pool) error {
	sessions := make([]*fleet.Session, pool.Size())
	for i := range sessions {
		if sessions[i] = pool.Acquire(); sessions[i] == nil {
			return fmt.Errorf("worker pool closed")
		}
	}
	defer func() {
		for _, s := range sessions {
			s.Release()
		}
	}()
	for _, s := range sessions {
		if _, err := s.Link(); err != nil {
			return err
		}
	}
	return nil
}

// imbalance is the most epochs any worker served over the fewest (0 when
// a worker served none).
func imbalance(stats []fleet.WorkerStat) float64 {
	if len(stats) == 0 {
		return 0
	}
	lo, hi := stats[0].EpochsServed, stats[0].EpochsServed
	for _, s := range stats[1:] {
		lo, hi = min(lo, s.EpochsServed), max(hi, s.EpochsServed)
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// daemon is one spawned worker daemon.
type daemon struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

func startDaemon(self string, env []string) (*daemon, error) {
	cmd := exec.Command(self, "-daemon")
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker daemon: %w", err)
	}
	d := &daemon{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("worker daemon address: %w", err)
	}
	d.addr = strings.TrimSpace(line)
	return d, nil
}

// stop closes the daemon's stdin — its shutdown signal — and waits for it
// to write its report and exit, killing it after a grace period.
func (d *daemon) stop() error {
	d.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		return <-done
	}
}
