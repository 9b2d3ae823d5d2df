package shard

import (
	"strings"
	"testing"

	_ "sacga/internal/mesacga" // registers a replica engine without search.Migrator
	"sacga/internal/sched"
)

// TestShardedRefusesNonMigratorLikeInProcess: migration needs replicas that
// implement search.Migrator. The sharded ensemble refuses any other engine
// at Init with the error the in-process scheduler returns, under its own
// name, instead of stepping workers until the first migration epoch.
func TestShardedRefusesNonMigratorLikeInProcess(t *testing.T) {
	_, inErr := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("mesacga", nil))
	if inErr == nil || !strings.Contains(inErr.Error(), "does not support migration (search.Migrator)") {
		t.Fatalf("in-process error %v, want the search.Migrator refusal", inErr)
	}
	opts := shardedOpts(t, 2, "")
	opts.Extra.(*Params).Algo = "mesacga"
	_, err := supervisedRun(t, NameShardedIslands, opts)
	want := strings.Replace(inErr.Error(), sched.NameParallelIslands, NameShardedIslands, 1)
	if err == nil || err.Error() != want {
		t.Fatalf("sharded error %v, want %q", err, want)
	}
}
