package search

import "sacga/internal/ga"

// Migrator is the cross-engine migration hook the multi-engine scheduler
// drives: an engine that can emit its best individuals and absorb
// newcomers mid-run. The base optimizers (nsga2, sacga, islands) implement
// it; schedulers step engine replicas concurrently and exchange migrants at
// epoch boundaries, when no Step is in flight.
//
// Both methods are deterministic — selection and replacement use the
// crowded-comparison ordering, never randomness — so a migration epoch
// produces the same populations no matter how the preceding steps were
// scheduled across goroutines.
type Migrator interface {
	// Emigrants returns deep copies of the engine's k migration candidates
	// (its crowded-comparison best; fewer when the population is smaller).
	// The caller owns the clones.
	Emigrants(k int) ga.Population
	// Immigrate installs the given individuals in place of the engine's
	// crowded-comparison-worst residents and refreshes the engine's
	// selection bookkeeping (ranks, crowding, partition assignment). The
	// engine takes ownership of the migrants: they must be clones that no
	// other engine retains. Migrants beyond half the population are
	// ignored, preserving a resident majority, so migration refreshes
	// diversity without letting a single epoch replace a population
	// wholesale. ga.Arena.Immigrate implements that replacement rule.
	Immigrate(migrants ga.Population)
}
