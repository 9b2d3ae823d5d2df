package expt

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// A report that JSON cannot encode, one holding a NaN or an infinity, is
// refused by Store and stays uncached alone: the entries before and after
// it are still persisted.
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
	if err := json.Unmarshal(data, &c.entries); err != nil {
		return nil, fmt.Errorf("expt: corrupt cache %s: %w", path, err)
	}
	return c, nil
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

// Store records a completed run and persists the cache file durably. A
// report JSON cannot encode is refused before it enters the cache, so it
// cannot make every later Store fail with it.
func (c *Cache) Store(id string, cfg Config, rep *Report) error {
	if _, err := json.Marshal(rep); err != nil {
		return fmt.Errorf("expt: caching %s: %w", id, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[cacheKey(id, cfg)] = rep
	data, err := json.MarshalIndent(c.entries, "", " ")
	if err != nil {
		return err
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
