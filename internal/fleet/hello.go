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
//
// Version 3: every population a Request or Reply carries — the engine
// snapshots' populations and phase fronts, and the seed population — is a
// ga.Packed, one opaque byte string in place of gob's struct form. A
// version-2 peer would decode a packed snapshot as one with an empty
// population, since gob drops fields its type lacks, so it must be turned
// away at the handshake.
//
// Version 4: a Request carries the replica's search.Options as they are,
// in place of version 3's six-field projection of them, and the seed
// population once, packed in Request.Initial on the Init request only; the
// per-request heartbeat period is gone, so a worker heartbeats at its own
// period. A version-3 worker expects the projection in Opts and would
// drop Request.Initial, since gob drops fields its type lacks, so it must
// be turned away at the handshake.
const ProtocolVersion = 4

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
	// Coordinator and Worker are the two roles' values of that field,
	// whichever side reports the mismatch.
	Coordinator string
	Worker      string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("fleet: worker %s mismatch: coordinator has %s, worker has %s", e.Field, e.Coordinator, e.Worker)
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
}

// handshakeTimeout bounds the whole hello exchange: a worker that accepts
// a connection and then hears nothing must not park a handshake forever,
// nor must a coordinator whose worker never answers.
const handshakeTimeout = 10 * time.Second

func (cfg HandshakeConfig) hello() Hello {
	b := cfg.Build
	if b == "" {
		b = BuildFingerprint()
	}
	return Hello{Proto: ProtocolVersion, Build: b, Problem: cfg.Problem}
}

// Deadliner is the deadline surface of a stream (net.Conn, *os.File).
// Every Conn has it: the coordinator bounds its handshake, and each
// step's lease and heartbeat gap, with connection deadlines. A worker's
// stream is a plain io.Reader; where it is also a Deadliner, the worker
// bounds its side of the handshake too.
type Deadliner interface {
	SetDeadline(t time.Time) error
}

// ClientHandshake runs the dialer side on a fresh connection: write our
// Hello, read the worker's. A protocol or build mismatch is a typed
// *VersionError; a worker rejection (Hello.Err) is an ordinary error. On
// any error the connection is unusable and must be closed by the caller.
func ClientHandshake(c Conn, cfg HandshakeConfig) (Hello, error) {
	// A connection that cannot bound the exchange fails the dial rather
	// than wait forever on a silent worker.
	if err := c.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return Hello{}, fmt.Errorf("fleet: handshake deadline: %w", err)
	}
	defer c.SetDeadline(time.Time{})
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
		d.SetDeadline(time.Now().Add(handshakeTimeout))
		defer d.SetDeadline(time.Time{})
	}
	peer, err := readHello(r)
	if err != nil {
		return Hello{}, err
	}
	ours := cfg.hello()
	verr := matchVersions(peer, ours)
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

// matchVersions compares the coordinator's and the worker's version
// fields, whichever of them this process is.
func matchVersions(coord, worker Hello) *VersionError {
	if worker.Proto != coord.Proto {
		return &VersionError{Field: "protocol", Coordinator: fmt.Sprintf("v%d", coord.Proto), Worker: fmt.Sprintf("v%d", worker.Proto)}
	}
	if worker.Build != coord.Build {
		return &VersionError{Field: "build", Coordinator: coord.Build, Worker: worker.Build}
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
