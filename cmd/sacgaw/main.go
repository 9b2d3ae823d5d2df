// Command sacgaw is the long-lived shard worker daemon: the TCP form of
// `cmd/sacga -worker`. It listens on -addr and serves the stateless shard
// request/reply protocol (internal/shard.ServeWorker) on every accepted
// connection, many connections concurrently — one machine runs one sacgaw
// and any number of coordinators (cmd/sacga -fleet, or a sacgad job
// server's shared fleet) multiplex over it.
//
// Each connection begins with the fleet handshake: protocol version,
// build fingerprint, and the coordinator's announced problem. A
// coordinator built from different sources is rejected at dial time with
// a typed version error on its side; a problem this worker cannot build
// is rejected before any step runs.
//
// The daemon holds no replica state between requests, so killing it at
// any moment is safe: coordinators replay the interrupted step against
// another worker (or this one, once restarted) bit-identically. On
// SIGTERM or SIGINT it stops accepting, closes every live connection and
// exits; a second signal exits immediately.
//
// Exit codes: 0 after a clean signal-driven shutdown, 1 internal error,
// 2 usage error.
//
// Example (two terminals):
//
//	sacgaw -addr :9750
//	sacga -problem zdt1 -algo parislands -fleet host:9750
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"sacga/internal/objective"
	"sacga/internal/probspec"
	_ "sacga/internal/search/engines" // replica engines a coordinator may request
	"sacga/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", ":9750", "TCP listen address")
		heartbeat = flag.Duration("heartbeat", 0, "heartbeat period while a step is in flight (0 = 200ms); must stay under the coordinators' heartbeat gap (15s by default)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sacgaw: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sacgaw: %v\n", err)
		os.Exit(1)
	}
	// The resolved address, not the flag: -addr :0 picks a free port, and
	// scripts (and the CI smoke test) parse this line to find it.
	fmt.Fprintf(os.Stderr, "sacgaw: serving on %s\n", ln.Addr())

	cfg := shard.WorkerConfig{
		Build: func(spec string) (objective.Problem, error) {
			ps, err := probspec.Decode(spec)
			if err != nil {
				return nil, err
			}
			prob, _, err := ps.BuildValidated()
			return prob, err
		},
		HeartbeatEvery: *heartbeat,
	}

	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	shutdown := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "sacgaw: %v: shutting down (again to exit immediately)\n", sig)
		close(shutdown)
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "sacgaw: second signal, exiting immediately")
			os.Exit(0)
		}()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-shutdown:
				wg.Wait()
				os.Exit(0)
			default:
			}
			fmt.Fprintf(os.Stderr, "sacgaw: accept: %v\n", err)
			os.Exit(1)
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() {
				conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			start := time.Now()
			if err := shard.ServeWorker(conn, conn, cfg); err != nil && !isConnTeardown(err) {
				fmt.Fprintf(os.Stderr, "sacgaw: %s (after %v): %v\n", conn.RemoteAddr(), time.Since(start).Round(time.Millisecond), err)
			}
		}(conn)
	}
}

// isConnTeardown filters the expected way connections end — the peer (or
// our own shutdown path) closing the socket — from real protocol errors
// worth logging.
func isConnTeardown(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
