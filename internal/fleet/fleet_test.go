package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sacga/internal/search"
)

// pipeConn adapts one end of a net.Pipe (or any net.Conn) to Conn.
type pipeConn struct{ net.Conn }

func (c pipeConn) Kill() { c.Conn.Close() }

// TestHandshakeRoundTrip: matching builds agree on both sides, the
// dialer's problem announcement reaches the worker's Check hook, and the
// worker's answering Hello carries its real identity.
func TestHandshakeRoundTrip(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	var checked Hello
	done := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(srv, srv, HandshakeConfig{Check: func(h Hello) error {
			checked = h
			return nil
		}})
		done <- err
	}()
	peer, err := ClientHandshake(pipeConn{cli}, HandshakeConfig{Problem: "zdt1"})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if checked.Problem != "zdt1" {
		t.Fatalf("worker Check saw problem %q, want the announcement", checked.Problem)
	}
	if peer.Proto != ProtocolVersion || peer.Build != BuildFingerprint() {
		t.Fatalf("worker hello %+v, want this binary's identity", peer)
	}
}

// TestHandshakeBuildMismatch: different build fingerprints produce the
// typed *VersionError on BOTH sides, each from its own perspective.
func TestHandshakeBuildMismatch(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(srv, srv, HandshakeConfig{Build: "bbbb"})
		done <- err
	}()
	_, err := ClientHandshake(pipeConn{cli}, HandshakeConfig{Build: "aaaa"})
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Field != "build" || ve.Ours != "aaaa" || ve.Peer != "bbbb" {
		t.Fatalf("client error %v, want build VersionError aaaa vs bbbb", err)
	}
	var sve *VersionError
	if serr := <-done; !errors.As(serr, &sve) || sve.Field != "build" || sve.Ours != "bbbb" || sve.Peer != "aaaa" {
		t.Fatalf("server error %v, want the mirrored build VersionError", serr)
	}
}

// TestHandshakeProtocolMismatch: a hand-crafted Hello from a future
// protocol generation is rejected as a protocol VersionError — and the
// worker still answers with its own Hello first, so the stale peer can
// diagnose the same mismatch.
func TestHandshakeProtocolMismatch(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	answer := make(chan Hello, 1)
	go func() {
		var buf bytes.Buffer
		gob.NewEncoder(&buf).Encode(&Hello{Proto: ProtocolVersion + 7, Build: BuildFingerprint()})
		WriteFrame(cli, FrameHello, buf.Bytes())
		typ, payload, err := ReadFrame(cli, "test: answer")
		if err != nil || typ != FrameHello {
			answer <- Hello{}
			return
		}
		var h Hello
		gob.NewDecoder(bytes.NewReader(payload)).Decode(&h)
		answer <- h
	}()
	_, err := ServerHandshake(srv, srv, HandshakeConfig{})
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Field != "protocol" {
		t.Fatalf("server error %v, want protocol VersionError", err)
	}
	if h := <-answer; h.Proto != ProtocolVersion {
		t.Fatalf("answering hello %+v, want the worker's own protocol version", h)
	}
}

// TestHandshakeRefusesVersion3Worker: a worker of protocol version 3,
// whose Request type lacks the packed seed population, is refused at dial
// time with a typed protocol *VersionError.
func TestHandshakeRefusesVersion3Worker(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		if _, _, err := ReadFrame(srv, "test: hello"); err != nil {
			return
		}
		var buf bytes.Buffer
		gob.NewEncoder(&buf).Encode(&Hello{Proto: 3, Build: BuildFingerprint()})
		WriteFrame(srv, FrameHello, buf.Bytes())
	}()
	_, err := ClientHandshake(pipeConn{cli}, HandshakeConfig{})
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Field != "protocol" || ve.Ours != fmt.Sprintf("v%d", ProtocolVersion) || ve.Peer != "v3" {
		t.Fatalf("client error %v, want a protocol VersionError against v3", err)
	}
}

// TestHandshakeCheckRejection: a worker whose Check refuses the announced
// problem fails the dial with the reason, on both sides.
func TestHandshakeCheckRejection(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(srv, srv, HandshakeConfig{Check: func(h Hello) error {
			return fmt.Errorf("no such problem %q", h.Problem)
		}})
		done <- err
	}()
	_, err := ClientHandshake(pipeConn{cli}, HandshakeConfig{Problem: "mystery"})
	if err == nil || !strings.Contains(err.Error(), `no such problem "mystery"`) {
		t.Fatalf("client error %v, want the worker's rejection reason", err)
	}
	if serr := <-done; serr == nil {
		t.Fatal("server handshake succeeded despite rejecting")
	}
}

// TestHandshakeNonHelloFrame: a peer that skips the handshake (a
// pre-handshake binary, a desynced stream) is reported as typed
// corruption before any payload is trusted.
func TestHandshakeNonHelloFrame(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go WriteFrame(cli, FrameRequest, []byte("not a hello"))
	_, err := ServerHandshake(srv, srv, HandshakeConfig{})
	var ce *search.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("server error %T (%v), want *search.CorruptError", err, err)
	}
}

// ---------------------------------------------------------------------------
// Pool assignment policy.

// fakeTransport is an in-memory Transport whose Dial can be switched
// between succeeding (a pipe whose far end swallows writes) and refusing.
type fakeTransport struct {
	addr  string
	fail  atomic.Bool
	dials atomic.Int32
}

func (f *fakeTransport) Addr() string { return f.addr }

func (f *fakeTransport) Dial() (Conn, error) {
	f.dials.Add(1)
	if f.fail.Load() {
		return nil, errors.New("fake dial refused")
	}
	c, far := net.Pipe()
	go io.Copy(io.Discard, far)
	return pipeConn{c}, nil
}

// TestPoolPrefersHealthyWorker: a worker with outstanding failures is
// passed over for a healthy one, failures and successes land in the
// stats, and a closed pool returns nil from Acquire.
func TestPoolPrefersHealthyWorker(t *testing.T) {
	a := &fakeTransport{addr: "a"}
	a.fail.Store(true)
	b := &fakeTransport{addr: "b"}
	p := NewPool(a, b)

	s := p.Acquire()
	if s == nil || s.Addr() != "a" {
		t.Fatalf("first acquire got %v, want index order (a)", s)
	}
	if _, err := s.Link(); err == nil {
		t.Fatal("dial of the failing transport succeeded")
	}
	s.Release()

	s2 := p.Acquire()
	if s2 == nil || s2.Addr() != "b" {
		t.Fatalf("acquire after a's failure got %v, want the healthy b", s2)
	}
	if _, err := s2.Link(); err != nil {
		t.Fatalf("dial b: %v", err)
	}
	s2.Served()
	s2.Release()

	stats := p.Stats()
	if stats[0].State != WorkerDown || stats[0].Failures != 1 || stats[0].LastError == "" {
		t.Fatalf("failed worker stat %+v, want down with one failure", stats[0])
	}
	if stats[1].State != WorkerIdle || stats[1].EpochsServed != 1 || !stats[1].Connected {
		t.Fatalf("healthy worker stat %+v, want idle, one epoch, connected", stats[1])
	}

	p.Close()
	if p.Acquire() != nil {
		t.Fatal("Acquire on a closed pool returned a session")
	}
}

// TestPoolWaitsForBusyHealthyWorker: when every free worker is failing
// inside its redial backoff but a healthy worker is merely busy, Acquire
// waits for the healthy one instead of handing out the dead machine —
// the policy that keeps a caller's retry budget off known-bad workers.
func TestPoolWaitsForBusyHealthyWorker(t *testing.T) {
	a := &fakeTransport{addr: "a"}
	a.fail.Store(true)
	b := &fakeTransport{addr: "b"}
	p := NewPool(a, b)
	defer p.Close()

	sa := p.Acquire() // a, by index
	for i := 0; i < 4; i++ {
		if _, err := sa.Link(); err == nil {
			t.Fatal("failing dial succeeded")
		}
	}
	sa.Release() // a now has 4 fails and a ~400ms backoff gate

	sb := p.Acquire()
	if sb.Addr() != "b" {
		t.Fatalf("acquired %s, want the healthy b", sb.Addr())
	}

	got := make(chan *Session, 1)
	go func() { got <- p.Acquire() }()
	select {
	case s := <-got:
		t.Fatalf("acquired %s while the healthy worker was busy", s.Addr())
	case <-time.After(100 * time.Millisecond):
	}
	sb.Release()
	select {
	case s := <-got:
		if s.Addr() != "b" {
			t.Fatalf("waiter got %s, want the released healthy b", s.Addr())
		}
		s.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after the healthy worker was released")
	}
}

// TestPoolFailTaintsConnection: Fail kills the link (never reused) and a
// later Link on the same worker dials a fresh one.
func TestPoolFailTaintsConnection(t *testing.T) {
	a := &fakeTransport{addr: "a"}
	p := NewPool(a)
	defer p.Close()

	s := p.Acquire()
	l1, err := s.Link()
	if err != nil {
		t.Fatal(err)
	}
	s.Fail(errors.New("injected"))
	s.Release()

	s2 := p.Acquire()
	l2, err := s2.Link() // sleeps out the 50ms first-failure backoff
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	if l1 == l2 {
		t.Fatal("tainted link was reused")
	}
	s2.Served()
	s2.Release()
	if n := a.dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2 (fresh connection after Fail)", n)
	}
}

// ---------------------------------------------------------------------------

// FuzzTCPFrameDecode: arbitrary bytes served over a real loopback TCP
// connection — the exact read path a coordinator runs against a worker
// daemon — must decode into clean frames, io.EOF at a frame boundary, or
// a typed *search.CorruptError. Nothing else, and never a panic or hang.
func FuzzTCPFrameDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameReply, []byte("fuzz seed payload")); err != nil {
		f.Fatal(err)
	}
	valid := bytes.Clone(buf.Bytes())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])   // torn mid-frame
	f.Add(valid[:5])              // torn mid-header
	f.Add([]byte{})               // immediate close
	f.Add(bytes.Repeat(valid, 3)) // several clean frames
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped) // payload corruption the CRC must catch

	f.Fuzz(func(t *testing.T, data []byte) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback listener")
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write(data)
			c.Close()
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Skip("no loopback dial")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		for {
			_, _, err := ReadFrame(conn, "fuzz: tcp stream")
			if err == nil {
				continue
			}
			if err == io.EOF {
				return
			}
			var ce *search.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("ReadFrame error %T (%v), want io.EOF or *search.CorruptError", err, err)
			}
			return
		}
	})
}

// scriptConn is a Conn whose reads replay a fixed byte string and whose
// writes go nowhere.
type scriptConn struct{ *bytes.Reader }

func (scriptConn) Write(p []byte) (int, error)   { return len(p), nil }
func (scriptConn) SetDeadline(t time.Time) error { return nil }
func (scriptConn) Close() error                  { return nil }
func (scriptConn) Kill()                         {}

// TestFrameReadBoundedByArrivedBytes: a 17-byte input — a valid header
// whose length field claims MaxFramePayload, then 8 body bytes, then EOF —
// fails as a typed *search.CorruptError in every reader of the package,
// and no reader allocates what the length field claims: the body buffer
// grows only as bytes arrive.
func TestFrameReadBoundedByArrivedBytes(t *testing.T) {
	input := make([]byte, frameHeaderSize, 17)
	binary.LittleEndian.PutUint32(input[0:4], frameMagic)
	input[4] = byte(FrameHello)
	binary.LittleEndian.PutUint32(input[5:9], MaxFramePayload)
	input = append(input, "8 bytes."...)
	if len(input) != 17 {
		t.Fatalf("input is %d bytes, want 17", len(input))
	}
	for _, tc := range []struct {
		name string
		read func(r *bytes.Reader) error
	}{
		{"ReadFrame", func(r *bytes.Reader) error {
			_, _, err := ReadFrame(r, "test")
			return err
		}},
		{"Stream.ReadFrame", func(r *bytes.Reader) error {
			_, _, err := NewStream().ReadFrame(r, "test")
			return err
		}},
		{"ClientHandshake", func(r *bytes.Reader) error {
			_, err := ClientHandshake(scriptConn{r}, HandshakeConfig{})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(input)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.read(r)
			runtime.ReadMemStats(&after)
			var ce *search.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T (%v), want *search.CorruptError", err, err)
			}
			grew := after.TotalAlloc - before.TotalAlloc
			if grew >= 1<<20 {
				t.Fatalf("reading 17 bytes allocated %d bytes, want under 1 MB", grew)
			}
			t.Logf("%d bytes allocated", grew)
		})
	}
}

// TestShutdownEndsReadInFlight: a Link has no reader goroutine, so a read
// in flight runs on its caller's goroutine; Pool.Close and Session.Fail
// must still end it, by closing the connection under it.
func TestShutdownEndsReadInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Pool, *Session)
	}{
		{"Pool.Close", func(p *Pool, _ *Session) { p.Close() }},
		{"Session.Fail", func(_ *Pool, s *Session) { s.Fail(errors.New("injected")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(&fakeTransport{addr: "a"}) // its worker never writes
			defer p.Close()
			s := p.Acquire()
			defer s.Release()
			l, err := s.Link()
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, _, err := l.ReadFrame()
				done <- err
			}()
			tc.stop(p, s)
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("the read returned a frame its worker never sent")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the read in flight outlived the shutdown")
			}
		})
	}
}
