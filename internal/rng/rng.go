// Package rng provides deterministic random-number utilities used across
// the optimizer and the Monte-Carlo robustness estimator.
//
// Every stochastic component in this repository draws from a *Stream that is
// derived from a single master seed, so a run is bit-reproducible given the
// seed, and independent components (e.g. the GA operators and the yield
// estimator) do not perturb each other's sequences when one of them changes
// how many numbers it consumes.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
)

// Stream is a deterministic random number stream. It wraps math/rand with a
// few domain helpers (gaussians, Latin-hypercube samples, shuffles).
//
// A Stream's position is fully determined by its seed and the number of raw
// source draws consumed so far, which State captures and FromState replays —
// the checkpoint/resume primitive of the search engines. Snapshots are exact:
// a restored stream emits bit-identical values to the original.
type Stream struct {
	r    *rand.Rand
	src  *countingSource
	seed int64
}

// countingSource wraps the standard math/rand source and counts raw draws.
// Both Int63 and Uint64 advance the underlying generator by exactly one
// step, so the draw count alone positions the stream. Implementing
// rand.Source64 matters: rand.New special-cases Source64, and wrapping must
// not change which code path (and therefore which values) rand.Rand uses.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// New returns a Stream seeded with seed.
func New(seed int64) *Stream {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Stream{r: rand.New(src), src: src, seed: seed}
}

// State is a serializable snapshot of a Stream's position: the seed it was
// created with and the number of raw source draws consumed since. The zero
// Draws state is the freshly-seeded stream.
type State struct {
	Seed  int64
	Draws uint64
}

// State captures the stream's current position in O(1), without
// allocating.
func (s *Stream) State() State {
	return State{Seed: s.seed, Draws: s.src.n}
}

// FromState reconstructs the exact stream a State was captured from: the
// next value drawn from the result is bit-identical to the next value the
// snapshotted stream would have produced. Positioning the generator
// replays raw draws at roughly 5ns each. A cold restore replays all of
// st.Draws from the seed; restoring a seed this process has restored
// before, at the same or a later draw count, resumes from the memoised
// generator and replays only the draws in between. Both paths produce the
// same bits.
func FromState(st State) *Stream {
	src, at := memo.resume(st)
	for ; at < st.Draws; at++ {
		src.Uint64()
	}
	memo.remember(st, src)
	cs := &countingSource{src: src, n: st.Draws}
	return &Stream{r: rand.New(cs), src: cs, seed: st.Seed}
}

// memoCap bounds the snapshot memo. A math/rand generator is about 5 KB,
// so the memo holds at most about 320 KB per process.
const memoCap = 64

// memo keeps, for each stream seed, a private copy of the generator at the
// last position FromState restored in this process. A sharded run restores
// every replica's streams each epoch at a slightly later position than the
// last, so a warm restore replays one epoch's draws instead of the run's.
var memo = snapshotMemo{snaps: make(map[int64]snapshot, memoCap)}

type snapshotMemo struct {
	mu    sync.Mutex
	snaps map[int64]snapshot
}

// snapshot is immutable once stored: remember replaces an entry rather
// than writing into it, so readers copy src outside the lock.
type snapshot struct {
	draws uint64
	src   rand.Source64 // never handed out: readers get a copy
}

// resume returns a generator for st.Seed and the draw count it sits at: a
// copy of the memoised snapshot when that is at or before st.Draws,
// otherwise a freshly seeded generator at zero.
func (m *snapshotMemo) resume(st State) (rand.Source64, uint64) {
	m.mu.Lock()
	sn, ok := m.snaps[st.Seed]
	m.mu.Unlock()
	if ok && sn.draws <= st.Draws {
		return cloneSource(sn.src), sn.draws
	}
	return rand.NewSource(st.Seed).(rand.Source64), 0
}

// remember records a copy of src, positioned at st, as st.Seed's
// snapshot. When the memo is full, a new seed evicts an arbitrary one.
func (m *snapshotMemo) remember(st State, src rand.Source64) {
	sn := snapshot{draws: st.Draws, src: cloneSource(src)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.snaps[st.Seed]; !ok && len(m.snaps) >= memoCap {
		for seed := range m.snaps {
			delete(m.snaps, seed)
			break
		}
	}
	m.snaps[st.Seed] = sn
}

// cloneSource copies a math/rand generator. Its state is a pointer-free
// struct behind the Source pointer, so a copy by value shares nothing
// with src.
func cloneSource(src rand.Source64) rand.Source64 {
	v := reflect.ValueOf(src).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	return c.Interface().(rand.Source64)
}

// Derive returns a child stream whose seed is a deterministic function of
// this stream's seed-state-independent label. Deriving never consumes
// numbers from the parent: two components deriving with distinct labels get
// independent, stable sequences.
func Derive(master int64, label string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return New(int64(h.Sum64()))
}

// DeriveN returns a child stream labelled by an integer, e.g. a run index.
func DeriveN(master int64, label string, n int) *Stream {
	return New(ChildSeed(master, label, n))
}

// ChildSeed is the seed DeriveN's child stream starts from — exported for
// components that hand a whole engine (not just a stream) a derived
// identity, e.g. the multi-engine scheduler seeding each replica's run.
// Distinct (label, n) pairs yield independent, stable seeds; deriving never
// consumes numbers from any stream.
func ChildSeed(master int64, label string, n int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint(n) >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64())
}

// Float64 returns a uniform sample in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform sample in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Norm returns a standard gaussian sample.
func (s *Stream) Norm() float64 { return s.r.NormFloat64() }

// Gauss returns a gaussian sample with the given mean and standard deviation.
func (s *Stream) Gauss(mean, sigma float64) float64 {
	return mean + sigma*s.r.NormFloat64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle permutes the n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// LatinHypercube returns n samples in [0,1)^dim arranged as a Latin
// hypercube: in every dimension the n samples occupy the n equal strata
// exactly once. Used by the yield estimator for low-variance Monte Carlo.
func (s *Stream) LatinHypercube(n, dim int) [][]float64 {
	if n <= 0 || dim <= 0 {
		return nil
	}
	out := make([][]float64, n)
	flat := make([]float64, n*dim)
	for i := range out {
		out[i], flat = flat[:dim], flat[dim:]
	}
	for d := 0; d < dim; d++ {
		perm := s.r.Perm(n)
		for i := 0; i < n; i++ {
			out[i][d] = (float64(perm[i]) + s.r.Float64()) / float64(n)
		}
	}
	return out
}

// LatinHypercubeGauss maps a Latin hypercube through the inverse normal CDF,
// yielding stratified standard-gaussian samples.
func (s *Stream) LatinHypercubeGauss(n, dim int) [][]float64 {
	cube := s.LatinHypercube(n, dim)
	for _, row := range cube {
		for d, u := range row {
			row[d] = InvNormCDF(u)
		}
	}
	return cube
}

// InvNormCDF is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9 over the open unit interval).
func InvNormCDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormCDF is the standard normal CDF.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
