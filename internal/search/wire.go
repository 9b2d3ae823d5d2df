package search

// JobOptions is the wire-facing projection of Options: the JSON-encodable
// subset a remote caller may set, which is exactly the result-determining
// subset. Everything else in Options is either a performance knob that
// never changes results (Workers — bit-identical at any parallelism) or not
// expressible in a wire request (Initial).
//
// The zero value of each field means "engine default" (Options.Normalize
// semantics), so a minimal request can carry nothing but a seed.
type JobOptions struct {
	// PopSize is Options.PopSize (default 100).
	PopSize int `json:"pop_size,omitempty"`
	// Generations is Options.Generations (default 250).
	Generations int `json:"generations,omitempty"`
	// MaxEvals is Options.MaxEvals: a cap on objective evaluations, the
	// budget-matched stop rule (0 = unlimited).
	MaxEvals int64 `json:"max_evals,omitempty"`
	// Seed drives all randomness of the run. Part of the job identity:
	// two submissions differing only in seed are different runs.
	Seed int64 `json:"seed"`
}

// Options expands the wire form into runnable Options. Workers is left
// zero for the caller to set — it is the serving side's decision, not the
// client's.
func (jo JobOptions) Options() Options {
	return Options{
		PopSize:     jo.PopSize,
		Generations: jo.Generations,
		MaxEvals:    jo.MaxEvals,
		Seed:        jo.Seed,
	}
}
