package fleet

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Conn is one open, handshaken byte stream to a worker, carrying the
// frames its Stream builds. Deadlines are required: they bound the
// handshake, each step's lease and each heartbeat gap. A Conn is owned by
// one user at a time (no internal locking), except that Close and Kill
// may come from another goroutine to end a read in flight.
type Conn interface {
	io.ReadWriteCloser
	Deadliner
	// Kill tears the connection down immediately, without the graceful
	// shutdown Close performs (for ProcTransport: SIGKILL instead of a
	// stdin-close grace period). Used on tainted connections, where the
	// peer may be wedged and cannot be waited on. Idempotent, like Close.
	Kill()
}

// Transport is how a worker is reached: Dial yields a fresh connection
// with the handshake already completed. A Transport is reusable — the
// pool redials it every time a worker's previous connection is tainted.
type Transport interface {
	// Addr names the worker for stats and error labels.
	Addr() string
	// Dial establishes and handshakes one connection. A protocol or
	// build mismatch is a *VersionError.
	Dial() (Conn, error)
}

// procGrace bounds a worker process's clean exit (stdin close → EOF) on
// Close before it is killed; dialTimeout bounds a TCP connect.
const (
	procGrace   = 2 * time.Second
	dialTimeout = 5 * time.Second
)

// ProcTransport spawns a worker child process and frames its stdio — the
// original shard runtime behind the Transport seam. Each Dial is one
// process; Kill is SIGKILL, Close is the stdin-close grace dance.
type ProcTransport struct {
	// Argv is the worker command line (argv[0] = binary). The process
	// must run shard.ServeWorker on its stdin/stdout.
	Argv []string
	// Env is appended to the inherited environment.
	Env []string
	// Hello configures the dial-time handshake.
	Hello HandshakeConfig
}

// Addr implements Transport.
func (t *ProcTransport) Addr() string {
	if len(t.Argv) == 0 {
		return "proc:"
	}
	return "proc:" + t.Argv[0]
}

// Dial implements Transport: spawn, pipe, handshake.
func (t *ProcTransport) Dial() (Conn, error) {
	if len(t.Argv) == 0 {
		return nil, fmt.Errorf("fleet: empty worker argv")
	}
	cmd := exec.Command(t.Argv[0], t.Argv[1:]...)
	cmd.Env = append(os.Environ(), t.Env...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("fleet: worker stdout pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: spawn worker %q: %w", t.Argv[0], err)
	}
	c := &procConn{cmd: cmd, stdin: stdin, stdout: stdout}
	if _, err := ClientHandshake(c, t.Hello); err != nil {
		c.Kill()
		return nil, err
	}
	return c, nil
}

// procConn adapts a child process's stdio pipes to Conn.
type procConn struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	term   sync.Once
}

func (c *procConn) Read(p []byte) (int, error)  { return c.stdout.Read(p) }
func (c *procConn) Write(p []byte) (int, error) { return c.stdin.Write(p) }

// SetDeadline arms read and write deadlines on the pipe files, so a lease
// bounds a Write blocked on a wedged worker's full pipe buffer as well as
// a read.
func (c *procConn) SetDeadline(t time.Time) error {
	var err error
	if f, ok := c.stdout.(*os.File); ok {
		err = f.SetReadDeadline(t)
	}
	if f, ok := c.stdin.(*os.File); ok {
		if werr := f.SetWriteDeadline(t); err == nil {
			err = werr
		}
	}
	return err
}

// Close asks the worker to exit cleanly by closing its stdin (the worker
// loop returns on EOF), waiting up to procGrace before killing it. Always
// reaps the process.
func (c *procConn) Close() error {
	c.term.Do(func() { c.terminate(true) })
	return nil
}

// Kill terminates the worker immediately (SIGKILL) and reaps it.
func (c *procConn) Kill() {
	c.term.Do(func() { c.terminate(false) })
}

func (c *procConn) terminate(graceful bool) {
	if !graceful {
		c.cmd.Process.Kill()
		c.stdin.Close()
		c.cmd.Wait()
		return
	}
	c.stdin.Close()
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(procGrace):
		c.cmd.Process.Kill()
		<-done
	}
}

// TCPTransport dials a long-lived worker daemon (cmd/sacgaw) serving the
// shard protocol over TCP. The daemon outlives connections: a tainted
// connection is closed and the same address redialed, which is the
// network analogue of respawning a child process.
type TCPTransport struct {
	// Address is the daemon's host:port.
	Address string
	// Hello configures the dial-time handshake.
	Hello HandshakeConfig
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.Address }

// Dial implements Transport: connect within dialTimeout, then handshake
// (bounded by handshakeTimeout).
func (t *TCPTransport) Dial() (Conn, error) {
	nc, err := net.DialTimeout("tcp", t.Address, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial worker %s: %w", t.Address, err)
	}
	c := &tcpConn{Conn: nc}
	if _, err := ClientHandshake(c, t.Hello); err != nil {
		c.Kill()
		return nil, err
	}
	return c, nil
}

// tcpConn adapts net.Conn to Conn. Deadlines come promoted from net.Conn.
type tcpConn struct {
	net.Conn
	closeOnce sync.Once
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.Conn.Close() })
	return nil
}

// Kill implements Conn. TCP has no graceful/forced distinction worth
// keeping: the daemon's request loop ends on read error either way, and
// the worker is stateless, so nothing is lost.
func (c *tcpConn) Kill() { c.Close() }
