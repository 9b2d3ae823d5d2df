package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"sacga/internal/ga"
	"sacga/internal/search"
)

// The wire protocol. One request/reply pair per replica per epoch:
//
//	coordinator → worker: Request  (replica config + sealed checkpoint)
//	worker → coordinator: Heartbeat*  (liveness while the step runs)
//	worker → coordinator: Reply    (new sealed checkpoint + accounting)
//
// Requests are self-contained — a worker holds NO state between them
// beyond a cache of built problems. That is the whole fault model: any
// request can be replayed against any worker process, so the coordinator
// recovers from a killed, wedged or corrupting worker by respawning one
// and re-sending the last authoritative checkpoint.
//
// Payloads are self-contained gob streams (a fresh encoder per frame):
// a stream-stateful encoder would make frames meaningless after a respawn.

// Request asks a worker to advance one replica by one generation — or, when
// Init is set, to create its generation-zero state.
type Request struct {
	// Replica is the replica index; echoed in the Reply so a desynced
	// stream is detected, and used to label errors.
	Replica int
	// Epoch is the coordinator epoch this step belongs to (the number of
	// completed epochs), echoed in the Reply.
	Epoch int
	// Attempt numbers the retries of this (Replica, Epoch) step, 0-based.
	// Purely diagnostic — attempts are deterministic replays.
	Attempt int
	// Init, when set, asks for engine initialization instead of a step:
	// the reply checkpoint is the seeded, evaluated generation 0.
	Init bool
	// Algo is the engine registry name to instantiate.
	Algo string
	// Spec identifies the problem; the worker rebuilds it through its
	// WorkerConfig.Build hook. Opaque to this package.
	Spec string
	// Opts is the replica's full configuration, as the coordinator's
	// replica loop derived it — the same options an in-process replica
	// gets, so worker-side replicas are configured byte-identically.
	Opts WireOptions
	// HeartbeatEvery, when positive, overrides the worker's configured
	// heartbeat period for this step (Params.HeartbeatEvery shipped along,
	// so one knob tunes both sides of the liveness machinery). Ignored by
	// workers whose configuration disables heartbeats outright.
	HeartbeatEvery time.Duration
	// Ckpt is the replica's sealed checkpoint (search.EncodeCheckpoint
	// form, CRC footer included) to restore before stepping. Empty when
	// Init is set.
	Ckpt []byte
}

// Reply is a worker's answer to one Request.
type Reply struct {
	// Replica and Epoch echo the request.
	Replica int
	Epoch   int
	// Ckpt is the replica's new sealed checkpoint — taken after the step
	// even when Err is set, because engines complete their generation
	// before reporting a fault (the quarantine contract): the coordinator
	// adopts it before retrying, exactly like the in-process scheduler
	// retrying a quarantining engine. Empty only when the engine could not
	// be built or restored at all.
	Ckpt []byte
	// Evals is the replica's cumulative evaluation count (engine Evals(),
	// which spans restore boundaries). The coordinator sums these for the
	// ensemble budget.
	Evals int64
	// Gen is the replica's generation count after the step.
	Gen int
	// Done reports the replica has consumed its generation budget.
	Done bool
	// Err carries the step's error text ("" when clean). String, not
	// error: gob cannot ship arbitrary error types, and the coordinator
	// only needs the message for its drop report.
	Err string
}

// Heartbeat is sent periodically by a worker while a step is in flight, so
// the coordinator can tell a long step from a wedged process.
type Heartbeat struct {
	// Replica and Epoch identify the in-flight step.
	Replica int
	Epoch   int
}

// WireOptions is the gob-safe projection of search.Options: the fields a
// replica needs, minus the ones that must not cross a process boundary —
// MaxEvals (the budget belongs to the coordinator; children never consult
// the shared counter) and StepTimeout (the coordinator's lease replaces the
// in-process watchdog).
//
// Extra rides as an interface: a non-nil extension struct's concrete type
// must be gob-registered in BOTH processes (register it from an init in
// the package that defines it — coordinator and worker normally run the
// same binary, so one call covers both).
type WireOptions struct {
	PopSize     int
	Generations int
	Seed        int64
	Workers     int
	Initial     []search.IndividualSnap
	Extra       any
}

// ToWire projects opts into wire form. The Initial population is
// deep-snapped; SnapPopulation/UnsnapPopulation round-trip floats exactly,
// so a shipped seed population is bit-identical to a local one.
func ToWire(opts search.Options) WireOptions {
	return WireOptions{
		PopSize:     opts.PopSize,
		Generations: opts.Generations,
		Seed:        opts.Seed,
		Workers:     opts.Workers,
		Initial:     search.SnapPopulation(opts.Initial),
		Extra:       opts.Extra,
	}
}

// Options rebuilds the search.Options a worker hands its engine.
func (w WireOptions) Options() search.Options {
	var initial ga.Population
	if len(w.Initial) > 0 {
		initial = search.UnsnapPopulation(w.Initial)
	}
	return search.Options{
		PopSize:     w.PopSize,
		Generations: w.Generations,
		Seed:        w.Seed,
		Workers:     w.Workers,
		Initial:     initial,
		Extra:       w.Extra,
	}
}

// encodePayload gob-encodes v as a self-contained stream.
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("shard: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodePayload gob-decodes a frame payload into v. The frame CRC has
// already vouched for the bytes, but the guard keeps the no-gob-panic
// guarantee absolute (CRC collisions, protocol version skew).
func decodePayload(src string, payload []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload decode panicked: %v", r)}
		}
	}()
	if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); derr != nil {
		return &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload decode: %v", derr)}
	}
	return nil
}
