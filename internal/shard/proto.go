package shard

import (
	"sacga/internal/ga"
	"sacga/internal/search"
)

// The wire protocol. One request/reply pair per replica per epoch:
//
//	coordinator → worker: Request  (replica config + checkpoint)
//	worker → coordinator: Heartbeat*  (liveness while the step runs)
//	worker → coordinator: Reply    (new checkpoint, or the step's error)
//
// Requests are self-contained — a worker holds NO replica state between
// them, only a cache of built problems. That is the whole fault model: any
// request can be replayed against any worker process, so the coordinator
// recovers from a killed, wedged or corrupting worker by respawning one
// and re-sending the last authoritative checkpoint.
//
// Request and Reply payloads ride one gob stream per connection direction
// (fleet.Stream): type descriptors cross a connection once, with its first
// request and its first reply. The stream is per-connection state only —
// a respawn or redial starts both ends on fresh streams, and every request
// still carries the full checkpoint, so a replay on a fresh connection
// gives the same bits. The checkpoint travels as a value: the frame's
// CRC32-C covers every payload byte, so nothing on the wire path seals or
// unseals it (disk checkpoints keep search.SaveCheckpoint's sealed form).
// Heartbeat payloads are self-contained gobs, off the stream.

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
	// Opts is the replica's configuration exactly as the coordinator's
	// replica loop derived it, the options an in-process replica gets
	// (MaxEvals zero: the budget is the coordinator's), except that
	// Opts.Initial is always nil, since gob would walk a population float
	// by float. A non-nil Opts.Extra's concrete type must be gob-registered
	// in both processes (from an init in the package that defines it;
	// coordinator and worker normally run one binary).
	Opts search.Options
	// Initial is the replica's share of the seed population, packed raw
	// bits and all, so the worker's Init sees the coordinator's
	// Opts.Initial bit for bit. Nil on step requests and when the share
	// is empty.
	Initial ga.Packed
	// State is the replica's checkpoint to restore before stepping — the
	// full state, every request, so any request replays on any fresh
	// connection. Nil when Init is set.
	State *search.Checkpoint
}

// Reply is a worker's answer to one Request.
type Reply struct {
	// Replica and Epoch echo the request.
	Replica int
	Epoch   int
	// State is the replica's new checkpoint — taken after the step even
	// when Err is set, because engines complete their generation before
	// reporting a fault (the quarantine contract): the coordinator adopts
	// it before retrying, exactly like the in-process scheduler retrying a
	// quarantining engine. Nil only when the engine could not be built or
	// restored at all, so the coordinator treats a Reply with no Err and
	// no State as corrupt. The checkpoint carries the replica's
	// generation and cumulative evaluation count: the coordinator answers
	// both, and whether the replica is done, from the mirror it restores
	// from it.
	State *search.Checkpoint
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
