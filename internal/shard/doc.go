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
// ships the whole of it to a worker for each epoch; the worker restores
// the engine, advances it one generation, and ships the new checkpoint
// back. Both travel as values on the connection's gob stream: type
// descriptors cross a connection once, and the frame CRC covers every
// payload byte, so nothing on the wire path seals or unseals a checkpoint
// (disk checkpoints keep search.SaveCheckpoint's sealed form). The
// stream's table of types already sent is the only per-connection state,
// and it dies with the connection. A worker that crashes, wedges or
// corrupts its stream therefore loses nothing the coordinator cannot
// replay: the last epoch snapshot is re-dispatched to a fresh worker on a
// fresh stream, and a retried step is bit-identical to the one that was
// lost — which is why a SIGKILLed worker is fully masked, not merely
// tolerated.
//
// HOW workers are reached lives one layer down, in internal/fleet: the
// coordinator draws connections from a fleet.Pool, whose transports spawn
// child processes on framed stdio (fleet.ProcTransport — the original
// runtime) or dial long-lived TCP worker daemons (fleet.TCPTransport +
// cmd/sacgaw). Params.WorkerArgv, Params.Workers and Params.Pool select
// among them; the determinism contract is transport-independent, because
// a stateless request replays identically over any byte stream.
//
// Failure handling mirrors the in-process fault-tolerance layer, one level
// up:
//
//   - lease expiry (per-epoch deadline) and missed heartbeats kill the
//     connection and respawn-or-redial the worker — the process analogue
//     of search.GuardedStep, except reclamation always succeeds (SIGKILL
//     or a dropped connection needs no cooperation), so there is no
//     poisoned state class;
//   - failed attempts retry at once, re-dispatching the last
//     authoritative checkpoint — against whichever pool worker is healthy
//     (the pool paces redials of a failing address with its own backoff);
//   - a replica whose retry budget is exhausted is dropped by the loop's
//     own epoch barrier, in replica-index order, accumulating into
//     *sched.ReplicaError;
//   - corrupt or torn frames — and payloads that fail to decode on the
//     stream, leave bytes over, or reply cleanly without a checkpoint —
//     surface as typed *search.CorruptError, never a gob panic; a
//     coordinator/worker binary mismatch is a typed *fleet.VersionError
//     at dial time, which fails the replica without burning retries.
package shard
