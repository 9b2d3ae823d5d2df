package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/search"
	"sacga/internal/shard"
)

// startWorkerDaemon runs an in-process TCP worker daemon — cmd/sacgaw's
// serving loop in miniature — on a loopback port and returns its address.
func startWorkerDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				shard.ServeWorker(c, c, shard.WorkerConfig{
					Build: func(spec string) (objective.Problem, error) {
						ps, err := probspec.Decode(spec)
						if err != nil {
							return nil, err
						}
						prob, _, err := ps.BuildValidated()
						return prob, err
					},
					HeartbeatEvery: 50 * time.Millisecond,
				})
			}(c)
		}
	}()
	return ln.Addr().String()
}

// shardedSolo is the tenant's reference run: the same sharded-islands
// configuration executed directly (its own private workers, no job
// server), the way cmd/sacga -fleet runs it.
func shardedSolo(t *testing.T, addrs []string, req JobRequest) []FrontPoint {
	t.Helper()
	prob, _, err := testBuild(0)(req.Problem)
	if err != nil {
		t.Fatalf("solo build: %v", err)
	}
	eng, err := search.New(shard.NameShardedIslands)
	if err != nil {
		t.Fatal(err)
	}
	opts := req.Options.Options()
	opts.Extra = &shard.Params{Workers: addrs, Spec: req.Problem.Encode()}
	res, err := search.Run(t.Context(), eng, objective.NewCounter(prob), opts)
	if err != nil {
		t.Fatalf("solo sharded run: %v", err)
	}
	return snapshotFront(res.Front)
}

// TestShardedJobsShareFleetBitIdentical is the multi-tenant fleet
// property: two sharded jobs running concurrently over ONE shared worker
// fleet each produce exactly the front a solo run of their configuration
// produces — tenants cannot observe each other through the shared
// workers, because workers hold no state between steps.
func TestShardedJobsShareFleetBitIdentical(t *testing.T) {
	addrs := []string{startWorkerDaemon(t), startWorkerDaemon(t)}
	pool := fleet.NewPool(
		&fleet.TCPTransport{Address: addrs[0]},
		&fleet.TCPTransport{Address: addrs[1]},
	)
	defer pool.Close()
	s := newTestServer(t, Config{Slots: 2, Fleet: pool})

	reqs := []JobRequest{
		zdtJob(shard.NameShardedIslands, 7, 10),
		zdtJob(shard.NameShardedIslands, 8, 10),
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		view, _, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = view.ID
	}
	for i, id := range ids {
		res := waitTerminal(t, s, id)
		if res.State != StateDone {
			t.Fatalf("job %d: state %s (err %q)", i, res.State, res.Error)
		}
		frontsEqual(t, id, res.Front, shardedSolo(t, addrs, reqs[i]))
	}

	var epochs int64
	for _, st := range s.WorkerStats() {
		epochs += st.EpochsServed
		if st.Failures != 0 {
			t.Fatalf("worker %s recorded failures on a fault-free run: %+v", st.Addr, st)
		}
	}
	if epochs == 0 {
		t.Fatal("fleet stats recorded no served epochs; jobs did not run over the shared pool")
	}
}

// TestShardedJobWithoutFleetRejected: a server started without -fleet has
// no workers to offer, so sharded submissions fail at admission as a
// client error — not at run time as a mysterious job failure.
func TestShardedJobWithoutFleetRejected(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1})
	_, _, err := s.Submit(zdtJob(shard.NameShardedIslands, 1, 5))
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RequestError", err)
	}
	if !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("rejection %q should tell the operator about -fleet", err)
	}
}

// TestShardedJobClientCannotNameWorkers: the fleet is the operator's.
// Requests that try to point the engine at their own worker commands or
// addresses, or to set the fleet's process count, lease or heartbeat gap,
// are rejected as unknown fields — those knobs are not part of the wire
// surface at all.
func TestShardedJobClientCannotNameWorkers(t *testing.T) {
	pool := fleet.NewPool(&fleet.TCPTransport{Address: startWorkerDaemon(t)})
	defer pool.Close()
	s := newTestServer(t, Config{Slots: 1, Fleet: pool})
	for _, params := range []string{
		`{"Workers": ["attacker:9750"]}`,
		`{"WorkerArgv": ["/bin/true"]}`,
		`{"WorkerEnv": ["PATH=/tmp"]}`,
		`{"Procs": 2}`,
		`{"EpochDeadline": 1}`,
		`{"HeartbeatTimeout": 1}`,
	} {
		req := zdtJob(shard.NameShardedIslands, 1, 5)
		req.Params = []byte(params)
		_, _, err := s.Submit(req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("params %s: got %v, want RequestError", params, err)
		}
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("rejected submissions leaked %d jobs", got)
	}
}

// TestWorkersEndpoint: GET /workers serves fleet health — one entry per
// configured worker in index order, and an empty JSON array (never null)
// on a server without a fleet.
func TestWorkersEndpoint(t *testing.T) {
	getWorkers := func(t *testing.T, s *Server) (string, []fleet.WorkerStat) {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /workers: %s", resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var stats []fleet.WorkerStat
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		return strings.TrimSpace(string(body)), stats
	}

	t.Run("no fleet", func(t *testing.T) {
		s := newTestServer(t, Config{Slots: 1})
		body, stats := getWorkers(t, s)
		if len(stats) != 0 || !strings.HasPrefix(body, "[") {
			t.Fatalf("fleetless /workers = %q, want an empty array", body)
		}
	})

	t.Run("with fleet", func(t *testing.T) {
		pool := fleet.NewPool(
			&fleet.TCPTransport{Address: "host1:9750"},
			&fleet.TCPTransport{Address: "host2:9750"},
		)
		defer pool.Close()
		s := newTestServer(t, Config{Slots: 1, Fleet: pool})
		_, stats := getWorkers(t, s)
		if len(stats) != 2 || stats[0].Addr != "host1:9750" || stats[1].Addr != "host2:9750" {
			t.Fatalf("stats %+v, want both configured workers in index order", stats)
		}
		for _, st := range stats {
			if st.State != fleet.WorkerIdle || st.Connected || st.EpochsServed != 0 {
				t.Fatalf("fresh worker stat %+v, want idle and untouched", st)
			}
		}
	})
}
