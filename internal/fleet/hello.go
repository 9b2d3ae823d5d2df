package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sacga/internal/search"
)

// ProtocolVersion is the shard wire protocol generation. Bumped on any
// incompatible change to the frame layout or the gob payload types, so a
// stale worker binary is rejected at dial time instead of producing a
// mid-run decode error.
//
// Version 2: Request and Reply payloads are one gob stream per connection
// direction (Stream), and they carry the replica checkpoint as a value in
// place of version 1's self-contained gob per frame around a sealed
// checkpoint. A version-1 peer expects every frame to carry its own type
// descriptors, so it must be turned away at the handshake.
const ProtocolVersion = 2

// Hello is the handshake frame each side sends exactly once, before any
// request, on a fresh connection. The dialer (coordinator) writes first;
// the worker validates and answers with its own Hello.
type Hello struct {
	// Proto is the sender's ProtocolVersion.
	Proto int
	// Build is the sender's build fingerprint (BuildFingerprint unless
	// overridden). Coordinator and workers must run the same build: the
	// gob payloads embed Go type identity, so "same protocol version,
	// different binary" is still a skew the CRC cannot catch.
	Build string
	// Problem, on the dialer's Hello, announces the problem spec the
	// connection will run, so a worker that cannot build it rejects the
	// dial instead of failing the first request. Empty = unannounced.
	Problem string
	// Err, on the worker's answering Hello, carries a rejection reason
	// ("" = accepted).
	Err string
}

// VersionError reports a protocol or build mismatch discovered during the
// handshake — the typed dial-time failure mismatched binaries must produce.
// It is permanent for a given (coordinator, worker) pair: the shard
// coordinator does not burn retries on it.
type VersionError struct {
	// Field is what mismatched: "protocol" or "build".
	Field string
	// Ours and Peer are the two sides' values of that field.
	Ours string
	Peer string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("fleet: worker %s mismatch: coordinator has %s, worker has %s", e.Field, e.Ours, e.Peer)
}

// HandshakeConfig parameterizes one side of the handshake.
type HandshakeConfig struct {
	// Build overrides the advertised build fingerprint ("" = the real
	// BuildFingerprint). A test seam: mismatch tests run one binary.
	Build string
	// Problem is the dialer's problem announcement (dialer side only).
	Problem string
	// Check, on the worker side, validates the dialer's Hello — typically
	// that the announced problem builds. A non-nil error is sent back as
	// the answering Hello's Err and fails the handshake on both sides.
	Check func(Hello) error
	// Timeout bounds the whole exchange on streams that support
	// deadlines (default 10s). A worker that accepts a connection and
	// then hears nothing must not park a handshake forever.
	Timeout time.Duration
}

func (cfg HandshakeConfig) hello() Hello {
	b := cfg.Build
	if b == "" {
		b = BuildFingerprint()
	}
	return Hello{Proto: ProtocolVersion, Build: b, Problem: cfg.Problem}
}

func (cfg HandshakeConfig) timeout() time.Duration {
	if cfg.Timeout > 0 {
		return cfg.Timeout
	}
	return 10 * time.Second
}

// Deadliner is the optional deadline surface of a stream (net.Conn,
// *os.File). Streams that implement it get handshake and per-step
// deadlines armed; others rely on the coordinator's lease timers alone.
type Deadliner interface {
	SetDeadline(t time.Time) error
}

// ClientHandshake runs the dialer side on a fresh connection: write our
// Hello, read the worker's. A protocol or build mismatch is a typed
// *VersionError; a worker rejection (Hello.Err) is an ordinary error. On
// any error the connection is unusable and must be closed by the caller.
func ClientHandshake(c Conn, cfg HandshakeConfig) (Hello, error) {
	if d, ok := c.(Deadliner); ok {
		d.SetDeadline(time.Now().Add(cfg.timeout()))
		defer d.SetDeadline(time.Time{})
	}
	ours := cfg.hello()
	if err := writeHello(c, &ours); err != nil {
		return Hello{}, fmt.Errorf("fleet: handshake send: %w", err)
	}
	peer, err := readHello(c)
	if err != nil {
		return Hello{}, err
	}
	if verr := matchVersions(ours, peer); verr != nil {
		return peer, verr
	}
	if peer.Err != "" {
		return peer, fmt.Errorf("fleet: worker rejected handshake: %s", peer.Err)
	}
	return peer, nil
}

// ServerHandshake runs the worker side: read the dialer's Hello, validate
// it, answer with ours. The answer always carries our version fields —
// both sides diagnose the same mismatch — plus Check's rejection reason if
// any. r and w are the same stream's two directions (they are separate
// values because the stdio worker reads stdin and writes stdout).
func ServerHandshake(r io.Reader, w io.Writer, cfg HandshakeConfig) (Hello, error) {
	if d, ok := r.(Deadliner); ok {
		d.SetDeadline(time.Now().Add(cfg.timeout()))
		defer d.SetDeadline(time.Time{})
	}
	peer, err := readHello(r)
	if err != nil {
		return Hello{}, err
	}
	ours := cfg.hello()
	verr := matchVersions(ours, peer)
	if verr == nil && cfg.Check != nil {
		if cerr := cfg.Check(peer); cerr != nil {
			ours.Err = cerr.Error()
		}
	}
	if err := writeHello(w, &ours); err != nil {
		return peer, fmt.Errorf("fleet: handshake send: %w", err)
	}
	if verr != nil {
		return peer, verr
	}
	if ours.Err != "" {
		return peer, fmt.Errorf("fleet: handshake rejected: %s", ours.Err)
	}
	return peer, nil
}

// matchVersions compares the two sides' version fields from the local
// side's perspective (ours = this process).
func matchVersions(ours, peer Hello) *VersionError {
	if peer.Proto != ours.Proto {
		return &VersionError{Field: "protocol", Ours: fmt.Sprintf("v%d", ours.Proto), Peer: fmt.Sprintf("v%d", peer.Proto)}
	}
	if peer.Build != ours.Build {
		return &VersionError{Field: "build", Ours: ours.Build, Peer: peer.Build}
	}
	return nil
}

const helloSrc = "fleet: handshake"

// writeHello sends h as a self-contained gob, never on the connection's
// Stream: a peer on another protocol version must still decode it, to
// report the mismatch as a *VersionError.
func writeHello(w io.Writer, h *Hello) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return err
	}
	return WriteFrame(w, FrameHello, buf.Bytes())
}

// readHello reads and decodes the single Hello frame. Any other frame
// type here means the peer skipped the handshake — a pre-handshake binary
// or a desynced stream — and is reported as corruption, still before any
// request payload was trusted.
func readHello(r io.Reader) (h Hello, err error) {
	typ, payload, err := ReadFrame(r, helloSrc)
	if err != nil {
		return Hello{}, err
	}
	if typ != FrameHello {
		return Hello{}, &search.CorruptError{Path: helloSrc, Reason: fmt.Sprintf("expected hello frame, got type %d", typ)}
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = &search.CorruptError{Path: helloSrc, Reason: fmt.Sprintf("hello decode panicked: %v", rec)}
		}
	}()
	if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h); derr != nil {
		return Hello{}, &search.CorruptError{Path: helloSrc, Reason: fmt.Sprintf("hello decode: %v", derr)}
	}
	return h, nil
}

// buildFingerprint digests the facts that determine wire compatibility of
// this binary: protocol version, Go toolchain, and the module's VCS
// identity when stamped. Two binaries built from the same tree with the
// same toolchain agree; anything else is presumed skewed — the cheap,
// conservative side of the tradeoff, since a false mismatch costs one
// rebuild while a false match costs a mid-run decode error.
var buildFingerprint = sync.OnceValue(func() string {
	h := sha256.New()
	fmt.Fprintf(h, "proto=%d go=%s", ProtocolVersion, runtime.Version())
	if bi, ok := debug.ReadBuildInfo(); ok {
		fmt.Fprintf(h, " mod=%s@%s sum=%s", bi.Main.Path, bi.Main.Version, bi.Main.Sum)
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				fmt.Fprintf(h, " %s=%s", s.Key, s.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
})

// BuildFingerprint is this binary's handshake identity.
func BuildFingerprint() string { return buildFingerprint() }
