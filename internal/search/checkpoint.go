package search

import "fmt"

// Checkpoint is a deep, self-contained snapshot of a run: everything an
// engine needs to rebuild its exact state under the same problem and
// options. Snapshots share no memory with the live engine, so a checkpoint
// taken at generation k stays valid while the run continues.
//
// State holds the engine-specific payload (e.g. *sacga.Snapshot) — plain
// data structs of exported fields, gob-registered by their engine
// packages, so callers may persist checkpoints with encoding/gob for
// cross-process resume (gob round-trips the ±Inf crowding distances that
// JSON rejects). Payload populations are ga.Packed copies, which gob
// carries as opaque byte strings: each individual keeps its cached
// evaluation and selection bookkeeping, so a restore never re-evaluates
// the problem.
type Checkpoint struct {
	// Algo is the engine's registry name; Restore refuses a mismatched
	// checkpoint.
	Algo string
	// Gen is the number of generations completed at snapshot time.
	Gen int
	// Evals is the number of objective evaluations consumed at snapshot
	// time; Restore rebases the evaluation budget to it.
	Evals int64
	// State is the engine-specific snapshot payload.
	State any
}

// StateOf checks that cp is a checkpoint of the engine called name and
// returns its state, which must be a *T. Callers prefix the error with
// their package (and engine) name.
func StateOf[T any](name string, cp *Checkpoint) (*T, error) {
	if cp.Algo != name {
		return nil, fmt.Errorf("checkpoint is for %q", cp.Algo)
	}
	sn, ok := cp.State.(*T)
	if !ok {
		return nil, fmt.Errorf("checkpoint state is %T, want %T", cp.State, sn)
	}
	return sn, nil
}
