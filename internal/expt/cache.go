package expt

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"sacga/internal/search"
)

// Cache persists completed experiment reports keyed by (experiment id,
// result-determining configuration, seed), so re-running a sweep after a
// partial failure — one experiment crashed, the machine went down mid-run —
// skips every run that already completed instead of recomputing it. Only
// successful runs are stored; a failed experiment stays uncached and is
// retried on the next invocation.
//
// The fingerprint covers exactly the fields that determine an experiment's
// numbers — seed, scale, population size, robustness samples and replicate
// count — plus a hash of the running executable, so rebuilding with changed
// algorithm or model code invalidates every cached figure instead of
// silently replaying stale numbers. Worker count and output directory are
// deliberately excluded: the engine guarantees bit-identical results at any
// parallelism, so a cached report stays valid when only those change.
//
// A Cache is safe for concurrent use; the store is rewritten durably
// (search.WriteFileAtomic: temp file, fsync, rename, directory sync) after
// every successful run so a crash never corrupts previously cached entries.
// Report values round-trip bit for bit, infinities and NaNs included: a
// front with no feasible point, ordinary at small budgets, reports +Inf.
type Cache struct {
	path string

	mu      sync.Mutex
	entries map[string]*Report
	hits    int
	misses  int
}

// OpenCache loads (or initializes) the cache file at path. A missing file
// is an empty cache; a corrupt file is an error so stale results are never
// silently recomputed into a broken store.
func OpenCache(path string) (*Cache, error) {
	c := &Cache{path: path, entries: map[string]*Report{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("expt: reading cache %s: %w", path, err)
	}
	var stored map[string]cacheEntry
	if err := json.Unmarshal(data, &stored); err != nil {
		return nil, fmt.Errorf("expt: corrupt cache %s: %w", path, err)
	}
	for key, e := range stored {
		rep := e.Report
		rep.Values = make(map[string]float64, len(e.Values))
		for k, v := range e.Values {
			rep.Values[k] = float64(v)
		}
		c.entries[key] = &rep
	}
	return c, nil
}

// cacheEntry is a Report as the cache file holds it, its Values as
// cacheValues.
type cacheEntry struct {
	Report
	Values map[string]cacheValue
}

// cacheValue is a report value in the cache file: a JSON number when
// finite, else a string, since JSON numbers hold no infinity or NaN —
// "+Inf", "-Inf", or "NaN:" and the value's bits in hex, as NaNs differ
// in their bits.
type cacheValue float64

func (v cacheValue) MarshalJSON() ([]byte, error) {
	f := float64(v)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return fmt.Appendf(nil, `"NaN:%#x"`, math.Float64bits(f)), nil
	}
	return json.Marshal(f)
}

func (v *cacheValue) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*float64)(v))
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch {
	case s == "+Inf":
		*v = cacheValue(math.Inf(1))
	case s == "-Inf":
		*v = cacheValue(math.Inf(-1))
	case strings.HasPrefix(s, "NaN:"):
		bits, err := strconv.ParseUint(s[len("NaN:"):], 0, 64)
		if err != nil || !math.IsNaN(math.Float64frombits(bits)) {
			return fmt.Errorf("expt: cache value %q is not a NaN", s)
		}
		*v = cacheValue(math.Float64frombits(bits))
	default:
		return fmt.Errorf("expt: cache value %q is not a number", s)
	}
	return nil
}

// Path returns the backing file path.
func (c *Cache) Path() string { return c.path }

// cacheKey fingerprints one experiment run: the shared result-determining
// digest (search.Fingerprint, the same helper the job server keys dedup and
// checkpoint files on) plus a hash of the running executable. The binary
// hash is this cache's extra ingredient — figures must be invalidated by a
// rebuild, whereas a job server restart on the same state directory must
// NOT orphan its checkpoints — which is why the helper excludes it.
func cacheKey(id string, cfg Config) string {
	return fmt.Sprintf("%s|cfg=%s|bin=%s",
		id,
		search.Fingerprint(cfg.Seed, cfg.Scale, cfg.PopSize, cfg.RobustSamples, cfg.Seeds),
		binaryFingerprint())
}

var (
	binFPOnce sync.Once
	binFP     string
)

// binaryFingerprint hashes the running executable once per process. Any
// rebuild that changes the optimizers or circuit models changes the hash,
// which is what keeps cached figures honest across code edits. When the
// executable cannot be read the fingerprint degrades to "unknown" — caching
// then only distinguishes configurations, not builds.
func binaryFingerprint() string {
	binFPOnce.Do(func() {
		binFP = "unknown"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		binFP = fmt.Sprintf("%x", h.Sum(nil)[:12])
	})
	return binFP
}

// Lookup returns the cached report for (id, cfg) when present. The returned
// report is marked Cached and its artifact list reflects the original run
// (the files may have been produced into the same output directory then).
func (c *Cache) Lookup(id string, cfg Config) (*Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.entries[cacheKey(id, cfg)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	cp := *rep
	cp.Cached = true
	return &cp, true
}

// Store records a completed run and persists the cache file durably.
func (c *Cache) Store(id string, cfg Config, rep *Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[cacheKey(id, cfg)] = rep
	stored := make(map[string]cacheEntry, len(c.entries))
	for key, r := range c.entries {
		e := cacheEntry{Report: *r, Values: make(map[string]cacheValue, len(r.Values))}
		for k, v := range r.Values {
			e.Values[k] = cacheValue(v)
		}
		stored[key] = e
	}
	data, err := json.MarshalIndent(stored, "", " ")
	if err != nil {
		return fmt.Errorf("expt: caching %s: %w", id, err)
	}
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	return search.WriteFileAtomic(c.path, data)
}

// Hits and Misses report lookup statistics for this process.
func (c *Cache) Hits() int   { c.mu.Lock(); defer c.mu.Unlock(); return c.hits }
func (c *Cache) Misses() int { c.mu.Lock(); defer c.mu.Unlock(); return c.misses }

// Len returns the number of cached runs.
func (c *Cache) Len() int { c.mu.Lock(); defer c.mu.Unlock(); return len(c.entries) }
