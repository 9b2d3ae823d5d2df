package shard

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"sacga/internal/benchfn"
	"sacga/internal/fleet"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// loopbackWorker serves the shard protocol from this process: every
// connection accepted on a 127.0.0.1 listener is handed to serve, which
// runs ServeWorker on it, so per-connection hook state starts fresh on
// each dial. It returns the listener's address; cleanup closes the
// listener, ends every stream and waits for the serving goroutines.
func loopbackWorker(tb testing.TB, serve func(net.Conn)) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var (
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				c.Close()
			}
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				serve(c) // a stream ends when its coordinator hangs up
			}()
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// meteredTransport counts the bytes its connections carry after the
// handshake, both ways, into wire. Its connections pass everything else,
// deadlines included, through to the connection they wrap.
type meteredTransport struct {
	fleet.Transport
	wire *atomic.Int64
}

// Dial implements fleet.Transport.
func (m meteredTransport) Dial() (fleet.Conn, error) {
	c, err := m.Transport.Dial()
	if err != nil {
		return nil, err
	}
	return meteredConn{Conn: c, wire: m.wire}, nil
}

type meteredConn struct {
	fleet.Conn
	wire *atomic.Int64
}

func (c meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.Add(int64(n))
	return n, err
}

func (c meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.Add(int64(n))
	return n, err
}

// BenchmarkShardReplicaStep is the shard layer's row: one sharded replica
// step, end to end. One nsga2 replica on zdt1 at perfbench shard-zdt1's
// per-replica share (pop 25 of 100), with migration off, runs over a
// one-worker pool whose worker is a ServeWorker goroutine on a loopback
// TCP connection. Each iteration is one epoch, which is one replica step:
// the coordinator encodes and frames the request, the worker restores,
// steps and replies, and the coordinator restores its mirror from the
// reply. wire_B/op is the bytes both ways per step; allocs/op counts both
// ends, since both run in this process.
func BenchmarkShardReplicaStep(b *testing.B) {
	build := func(string) (objective.Problem, error) { return benchfn.ByName("zdt1"), nil }
	addr := loopbackWorker(b, func(c net.Conn) { ServeWorker(c, c, WorkerConfig{Build: build}) })
	var wire atomic.Int64
	pool := fleet.NewPool(meteredTransport{
		Transport: &fleet.TCPTransport{Address: addr, Hello: fleet.HandshakeConfig{Problem: "zdt1"}},
		wire:      &wire,
	})
	defer pool.Close()
	eng := new(Islands)
	opts := search.Options{PopSize: 25, Generations: b.N, Seed: 1, Extra: &Params{
		Replicas: 1, Algo: "nsga2", MigrationEvery: -1, Spec: "zdt1", Pool: pool,
	}}
	if err := eng.Init(benchfn.ByName("zdt1"), opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	wire.Store(0)
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wire.Load())/float64(b.N), "wire_B/op")
}
