// Package shard is the crash-tolerant cross-process scheduler runtime: a
// coordinator that shards sched.ParallelIslands replicas across worker
// processes while keeping the in-process determinism contract — at any
// worker count, with or without transient worker deaths, the pooled
// result is bit-identical to the in-process scheduler.
//
// The coordinator is that scheduler: Islands embeds sched.ParallelIslands
// and runs its epoch loop (barrier, drops, migration, budget, pooling,
// checkpoints) over remote replicas, through the loop's Ensemble seam. A
// remote replica is what this package adds: a search.Engine whose Init
// and Step are requests to a worker, driven through a retry ladder, and
// whose Population, Done, Evals and migration calls are answered by a
// local mirror engine restored from the last reply.
//
// The design rests on one invariant: workers are STATELESS between epochs.
// The coordinator owns every replica's state as a search.Checkpoint and
// ships the whole of it to a worker for each epoch, with the replica's
// search.Options exactly as the replica loop derived them (its share of
// the seed population rides packed in the Init request only); the worker
// restores the engine, advances it one generation, and ships the new
// checkpoint back. Both travel as values on the connection's gob stream:
// type descriptors cross a connection once, every population is a
// ga.Packed byte string that gob copies whole, and the frame CRC covers
// every payload byte, so nothing on the wire path seals or unseals a
// checkpoint (disk checkpoints keep search.SaveCheckpoint's sealed form). The
// stream's table of types already sent is the only per-connection state,
// and it dies with the connection. A worker that crashes, wedges or
// corrupts its stream therefore loses nothing the coordinator cannot
// replay: the last epoch snapshot is re-dispatched to a fresh worker on a
// fresh stream, and a retried step is bit-identical to the one that was
// lost — which is why a SIGKILLed worker is fully masked, not merely
// tolerated.
//
// HOW workers are reached lives one layer down, in internal/fleet: the
// coordinator draws connections from Params.Pool, a fleet.Pool that its
// caller builds and closes, whose transports spawn child processes on
// framed stdio (fleet.ProcTransport — the original runtime) or dial
// long-lived TCP worker daemons (fleet.TCPTransport + cmd/sacgaw), in any
// mix; the determinism contract is transport-independent, because a
// stateless request replays identically over any byte stream.
//
// Failure handling mirrors the in-process fault-tolerance layer, one level
// up:
//
//   - lease expiry (per-epoch deadline, 5 min unless set) and missed
//     heartbeats (a 15 s gap unless set; each worker heartbeats at its
//     own period) kill the connection and respawn-or-redial the worker;
//     a killed process or a dropped connection takes its step with it,
//     so the attempt is simply retried;
//   - failed attempts retry at once, re-dispatching the last
//     authoritative checkpoint — against whichever pool worker is healthy
//     (the pool paces redials of a failing address with its own backoff);
//   - a replica whose step still fails after sched.StepRetries retries,
//     the in-process schedulers' own budget, is dropped by the loop's
//     own epoch barrier, in replica-index order, accumulating into
//     *sched.ReplicaError;
//   - corrupt or torn frames — and payloads that fail to decode on the
//     stream (a malformed packed population included), leave bytes
//     over, or reply cleanly without a checkpoint —
//     surface as typed *search.CorruptError, never a gob panic; a
//     coordinator/worker binary mismatch is a typed *fleet.VersionError
//     at dial time, which fails the replica without burning retries.
package shard
