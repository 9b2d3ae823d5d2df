package expt

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func cacheTestConfig() Config {
	return Config{Seed: 5, Scale: 0.02, PopSize: 20, Workers: 1}
}

func TestCacheSkipsCompletedRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheTestConfig()
	cfg.Cache = cache

	ids := []string{"fig4", "fig2"}
	first := RunAll(ids, cfg)
	if err := FirstError(first); err != nil {
		t.Fatal(err)
	}
	for _, o := range first {
		if o.Report.Cached {
			t.Fatalf("%s: first run must not be served from cache", o.ID)
		}
	}
	if cache.Len() != 2 || cache.Misses() != 2 || cache.Hits() != 0 {
		t.Fatalf("after first sweep: len=%d hits=%d misses=%d", cache.Len(), cache.Hits(), cache.Misses())
	}

	// A fresh Cache instance simulates re-running the binary after a crash.
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = reopened
	second := RunAll(ids, cfg)
	if err := FirstError(second); err != nil {
		t.Fatal(err)
	}
	for i, o := range second {
		if !o.Report.Cached {
			t.Fatalf("%s: second run must be served from cache", o.ID)
		}
		for k, v := range first[i].Report.Values {
			if o.Report.Values[k] != v {
				t.Fatalf("%s: cached value %s = %v, want %v", o.ID, k, o.Report.Values[k], v)
			}
		}
	}
	if reopened.Hits() != 2 {
		t.Fatalf("reopened cache hits = %d, want 2", reopened.Hits())
	}
}

func TestCacheKeyCoversResultDeterminingFields(t *testing.T) {
	base := cacheTestConfig()
	same := base
	same.Workers = 7  // parallelism must NOT invalidate (bit-identical results)
	same.OutDir = "x" // artifact destination must NOT invalidate
	if cacheKey("fig5", base) != cacheKey("fig5", same) {
		t.Fatal("workers/outdir changed the fingerprint")
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.Scale *= 2 },
		func(c *Config) { c.PopSize++ },
		func(c *Config) { c.RobustSamples++ },
		func(c *Config) { c.Seeds++ },
	} {
		changed := base
		mutate(&changed)
		if cacheKey("fig5", base) == cacheKey("fig5", changed) {
			t.Fatalf("fingerprint missed a result-determining field: %+v vs %+v", base, changed)
		}
	}
	if cacheKey("fig5", base) == cacheKey("fig6", base) {
		t.Fatal("fingerprint missed the experiment id")
	}
}

func TestCacheFailedRunsNotStored(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(filepath.Join(dir, "cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheTestConfig()
	cfg.Cache = cache
	outs := RunAll([]string{"no-such-experiment"}, cfg)
	if outs[0].Err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if cache.Len() != 0 {
		t.Fatal("failed runs must not be cached")
	}
}

// TestCacheNonFiniteReportStaysUncached stores a report JSON cannot encode
// (a front with no feasible point reports an infinite lowest load), then a
// finite one. The first Store must fail without blocking the second, and
// the file must hold the finite report alone.
func TestCacheNonFiniteReportStaysUncached(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheTestConfig()
	inf := &Report{ID: "ablation", Values: map[string]float64{"min_cl_pF_islands": math.Inf(1)}}
	if err := cache.Store("ablation", cfg, inf); err == nil {
		t.Fatal("storing a +Inf value must fail")
	}
	finite := &Report{ID: "fig2", Values: map[string]float64{"min_cl_pF": 1.5}}
	if err := cache.Store("fig2", cfg, finite); err != nil {
		t.Fatalf("a finite report must still be stored after a refused one: %v", err)
	}
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := reopened.Lookup("fig2", cfg); !ok || rep.Values["min_cl_pF"] != 1.5 {
		t.Fatalf("finite report not persisted: %+v, %v", rep, ok)
	}
	if _, ok := reopened.Lookup("ablation", cfg); ok {
		t.Fatal("the refused +Inf report must stay uncached")
	}
}

func TestOpenCacheCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(path); err == nil {
		t.Fatal("corrupt cache must be reported, not silently reset")
	}
}

func TestOpenCacheMissingFileIsEmpty(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "nope", "cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("missing cache file must open empty")
	}
}
