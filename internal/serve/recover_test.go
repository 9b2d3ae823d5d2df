package serve

import (
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sacga/internal/probspec"
	"sacga/internal/search"
)

// persistedJob writes req to dir as admission would, under name (the
// fingerprint admission computes when name is ""), and returns the name.
func persistedJob(t *testing.T, dir, name string, req JobRequest) string {
	t.Helper()
	params, err := search.Canon(req.Params)
	if err != nil {
		t.Fatal(err)
	}
	req.Params = params
	if name == "" {
		name = search.Fingerprint("sacgad/v1", req.Problem, req.Engine, req.Options, params)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".job"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestRecoverJobsSkipsUnrunnableFiles boots a server on a state directory
// holding a valid job, a job whose params name a field the engine no longer
// has, and a valid request saved under a name its content does not hash
// to: the valid job is served to completion, and the other two are logged
// and skipped rather than failing the boot.
func TestRecoverJobsSkipsUnrunnableFiles(t *testing.T) {
	dir := t.TempDir()
	valid := persistedJob(t, dir, "", zdtJob("nsga2", 5, 6))
	stale := persistedJob(t, dir, "", JobRequest{
		Problem: probspec.Spec{Name: "zdt1"},
		Engine:  "parallel-islands",
		Options: search.JobOptions{PopSize: 24, Generations: 6, Seed: 5},
		Params:  json.RawMessage(`{"Topology":"star"}`),
	})
	misnamed := persistedJob(t, dir, "0123456789abcdef", zdtJob("nsga2", 9, 6))

	var logs syncLog
	s := newTestServer(t, Config{Slots: 1, Workers: 1, Dir: dir, Log: log.New(&logs, "", 0)})
	if res := waitTerminal(t, s, valid); res.State != StateDone {
		t.Fatalf("recovered job state %s (err %q)", res.State, res.Error)
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != valid {
		t.Fatalf("recovered job table %+v, want only %s", jobs, valid)
	}
	for _, want := range []string{
		"recover " + stale + ".job: no longer admissible",
		"recover " + misnamed + ".job: fingerprint mismatch",
	} {
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("log lacks %q; log:\n%s", want, logs.String())
		}
	}
}
