package serve

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sacga/internal/hypervolume"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/sched"
	"sacga/internal/search"
	"sacga/internal/sizing"
)

// slowProblem delays every evaluation without changing its result, so the
// drain/cancel tests can reliably catch jobs mid-run. It deliberately hides
// the inner problem's optional fast-path interfaces — values are identical
// down either path, so bit-identity comparisons still hold as long as both
// sides of a comparison build through the same wrapper.
type slowProblem struct {
	objective.Problem
	delay time.Duration
}

func (p *slowProblem) Evaluate(x []float64) objective.Result {
	time.Sleep(p.delay)
	return p.Problem.Evaluate(x)
}

// testBuild is the Config.Build used throughout: the standard probspec
// construction, optionally slowed.
func testBuild(delay time.Duration) func(probspec.Spec) (objective.Problem, bool, error) {
	return func(spec probspec.Spec) (objective.Problem, bool, error) {
		prob, circuit, err := spec.BuildValidated()
		if err != nil {
			return nil, false, err
		}
		if delay > 0 {
			prob = &slowProblem{Problem: prob, delay: delay}
		}
		return prob, circuit, nil
	}
}

// soloRun executes the same configuration the way cmd/sacga does — one
// engine, search.Run — and returns its wire-form front. The reference for
// every bit-identity assertion.
func soloRun(t *testing.T, build func(probspec.Spec) (objective.Problem, bool, error), req JobRequest) []FrontPoint {
	t.Helper()
	res, err := soloResult(t, build, req)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return snapshotFront(res.Front)
}

// soloResult is soloRun's search.Run, returning its result and error.
func soloResult(t *testing.T, build func(probspec.Spec) (objective.Problem, bool, error), req JobRequest) (*search.Result, error) {
	t.Helper()
	prob, _, err := build(req.Problem)
	if err != nil {
		t.Fatalf("solo build: %v", err)
	}
	eng, err := search.New(req.Engine)
	if err != nil {
		t.Fatalf("solo engine: %v", err)
	}
	opts := req.Options.Options()
	if len(req.Params) > 0 {
		extra, err := decodeExtra(req.Engine, mustRaw(t, req))
		if err != nil {
			t.Fatalf("solo params: %v", err)
		}
		opts.Extra = extra
	}
	return search.Run(context.Background(), eng, objective.NewCounter(prob), opts)
}

func mustRaw(t *testing.T, req JobRequest) []byte {
	t.Helper()
	s := &Server{cfg: Config{Build: testBuild(0), MaxPopSize: 10000, MaxGenerations: 1000000}}
	ad, err := s.admit(req)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	return ad.rawReq
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = testBuild(0)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Drain() })
	return s
}

// syncLog is a Config.Log sink the test may read while server goroutines
// write to it.
type syncLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitTerminal polls until the job ends, failing the test on timeout.
func waitTerminal(t *testing.T, s *Server, id string) ResultView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if res, terminal := j.Result(); terminal {
			return res
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return ResultView{}
}

// waitGen polls until the job has completed at least gen generations.
func waitGen(t *testing.T, s *Server, id string, gen int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v := j.View(); v.Gen >= gen {
			return
		}
		if j.State().Terminal() {
			t.Fatalf("job %s ended before reaching gen %d", id, gen)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached gen %d", id, gen)
}

func frontsEqual(t *testing.T, ctx string, got, want []FrontPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: front size %d, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Violation != w.Violation {
			t.Fatalf("%s: point %d violation %v != %v", ctx, i, g.Violation, w.Violation)
		}
		for k := range w.X {
			if g.X[k] != w.X[k] {
				t.Fatalf("%s: point %d x[%d] %v != %v", ctx, i, k, g.X[k], w.X[k])
			}
		}
		for k := range w.Objectives {
			if g.Objectives[k] != w.Objectives[k] {
				t.Fatalf("%s: point %d obj[%d] %v != %v", ctx, i, k, g.Objectives[k], w.Objectives[k])
			}
		}
	}
}

func zdtJob(engine string, seed int64, gens int) JobRequest {
	return JobRequest{
		Problem: probspec.Spec{Name: "zdt1"},
		Engine:  engine,
		Options: search.JobOptions{PopSize: 24, Generations: gens, Seed: seed},
	}
}

// TestJobBitIdenticalToSoloRun is the core determinism property: a job run
// through the shared scheduler produces exactly the front a solo
// search.Run of the same configuration produces.
func TestJobBitIdenticalToSoloRun(t *testing.T) {
	s := newTestServer(t, Config{Slots: 4})
	for _, engine := range []string{"nsga2", "sacga"} {
		req := zdtJob(engine, 7, 15)
		view, deduped, err := s.Submit(req)
		if err != nil || deduped {
			t.Fatalf("%s: submit: deduped=%v err=%v", engine, deduped, err)
		}
		res := waitTerminal(t, s, view.ID)
		if res.State != StateDone {
			t.Fatalf("%s: state %s, want done (err %q)", engine, res.State, res.Error)
		}
		frontsEqual(t, engine, res.Front, soloRun(t, testBuild(0), req))
	}
}

// TestCircuitJobHVIsThePaperHypervolume pins a circuit job's hv to the
// paper hypervolume cmd/sacga prints for the same run: the final front on
// the reported (CL, Power) plane, in 0.1 mW·pF.
func TestCircuitJobHVIsThePaperHypervolume(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1})
	req := JobRequest{
		Problem: probspec.Spec{Name: "integrator", Seed: 1},
		Engine:  "nsga2",
		Options: search.JobOptions{PopSize: 40, Generations: 30, Seed: 1},
	}
	view, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res := waitTerminal(t, s, view.ID); res.State != StateDone {
		t.Fatalf("state %s, want done (err %q)", res.State, res.Error)
	}
	j, _ := s.job(view.ID)
	got := j.View().HV

	prob, _, err := req.Problem.BuildValidated()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := search.New(req.Engine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), eng, prob, req.Options.Options())
	if err != nil {
		t.Fatal(err)
	}
	var pts []hypervolume.Point2
	for _, ind := range res.Front {
		if ind.Feasible() {
			cl, pw := sizing.ReportedPoint(ind.Objectives)
			pts = append(pts, hypervolume.Point2{X: cl, Y: pw})
		}
	}
	want := hypervolume.PaperMetric(pts) / (0.1e-3 * 1e-12)
	if got == nil {
		t.Fatal("the finished circuit job reports no hv")
	}
	if *got != want {
		t.Fatalf("job hv %g, want the paper hypervolume %g", *got, want)
	}
}

// TestConcurrentJobsBitIdentical drives more jobs than slots so turns
// genuinely interleave, and checks every job against its solo run.
func TestConcurrentJobsBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{Slots: 3})
	reqs := make([]JobRequest, 6)
	ids := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = zdtJob("nsga2", int64(100+i), 12)
		view, _, err := s.Submit(reqs[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = view.ID
	}
	for i, id := range ids {
		res := waitTerminal(t, s, id)
		if res.State != StateDone {
			t.Fatalf("job %d: state %s (err %q)", i, res.State, res.Error)
		}
		frontsEqual(t, ids[i], res.Front, soloRun(t, testBuild(0), reqs[i]))
	}
}

// TestParamsReachEngine submits engine extension parameters over the wire
// and checks the run matches a solo run with the same typed Params.
func TestParamsReachEngine(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2})
	req := zdtJob("sacga", 3, 10)
	req.Params = []byte(`{"Partitions": 5}`)
	view, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res := waitTerminal(t, s, view.ID)
	if res.State != StateDone {
		t.Fatalf("state %s (err %q)", res.State, res.Error)
	}
	frontsEqual(t, "sacga+params", res.Front, soloRun(t, testBuild(0), req))

	// Different partition count = different configuration = different run.
	req2 := req
	req2.Params = []byte(`{"Partitions": 4}`)
	view2, deduped, err := s.Submit(req2)
	if err != nil || deduped {
		t.Fatalf("submit 2: deduped=%v err=%v", deduped, err)
	}
	if view2.ID == view.ID {
		t.Fatal("different params must not dedup onto the same job")
	}
}

// TestDedup: identical submissions share one execution; key-order and
// whitespace differences in params do not defeat the dedup.
func TestDedup(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2})
	req := zdtJob("sacga", 11, 8)
	req.Params = []byte(`{"Partitions": 6, "GentMax": 4}`)
	v1, deduped, err := s.Submit(req)
	if err != nil || deduped {
		t.Fatalf("first submit: deduped=%v err=%v", deduped, err)
	}
	req2 := req
	req2.Params = []byte(`{ "GentMax":4, "Partitions":6 }`) // same content, different bytes
	v2, deduped, err := s.Submit(req2)
	if err != nil || !deduped {
		t.Fatalf("second submit: deduped=%v err=%v", deduped, err)
	}
	if v1.ID != v2.ID {
		t.Fatalf("dedup IDs differ: %s vs %s", v1.ID, v2.ID)
	}
	req3 := req
	req3.Options.Seed = 12 // different seed = different run
	v3, deduped, err := s.Submit(req3)
	if err != nil || deduped {
		t.Fatalf("third submit: deduped=%v err=%v", deduped, err)
	}
	if v3.ID == v1.ID {
		t.Fatal("different seeds must produce different job IDs")
	}
	if res := waitTerminal(t, s, v1.ID); res.State != StateDone {
		t.Fatalf("shared job: %s", res.State)
	}
}

// TestCancel: a cancelled job finalizes with its best-so-far front.
func TestCancel(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, Workers: 1, Build: testBuild(500 * time.Microsecond)})
	req := zdtJob("nsga2", 5, 100000)
	view, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitGen(t, s, view.ID, 3)
	found, already := s.Cancel(view.ID)
	if !found || already {
		t.Fatalf("cancel: found=%v already=%v", found, already)
	}
	res := waitTerminal(t, s, view.ID)
	if res.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", res.State)
	}
	if len(res.Front) == 0 {
		t.Fatal("cancelled job must serve its best-so-far front")
	}
	if res.Gen < 3 {
		t.Fatalf("cancelled at gen %d, expected >= 3", res.Gen)
	}
	if found, already := s.Cancel(view.ID); !found || !already {
		t.Fatalf("re-cancel of terminal job: found=%v already=%v", found, already)
	}
}

// TestAdmissionValidation: malformed requests are rejected as
// RequestError, before anything is keyed or queued.
func TestAdmissionValidation(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1, MaxPopSize: 100})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"unknown engine", JobRequest{Problem: probspec.Spec{Name: "zdt1"}, Engine: "no-such"}},
		{"missing engine", JobRequest{Problem: probspec.Spec{Name: "zdt1"}}},
		{"unknown problem", JobRequest{Problem: probspec.Spec{Name: "no-such"}, Engine: "nsga2"}},
		{"params for extension-less engine", JobRequest{Problem: probspec.Spec{Name: "zdt1"}, Engine: "nsga2", Params: []byte(`{"Partitions":4}`)}},
		{"unknown param field", JobRequest{Problem: probspec.Spec{Name: "zdt1"}, Engine: "sacga", Params: []byte(`{"NoSuchKnob":4}`)}},
		{"invalid params JSON", JobRequest{Problem: probspec.Spec{Name: "zdt1"}, Engine: "sacga", Params: []byte(`{`)}},
		{"pop over guardrail", JobRequest{Problem: probspec.Spec{Name: "zdt1"}, Engine: "nsga2", Options: search.JobOptions{PopSize: 101}}},
		{"negative generations", JobRequest{Problem: probspec.Spec{Name: "zdt1"}, Engine: "nsga2", Options: search.JobOptions{Generations: -1}}},
	}
	for _, tc := range cases {
		_, _, err := s.Submit(tc.req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s: got %v, want RequestError", tc.name, err)
		}
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("rejected submissions leaked %d jobs into the table", got)
	}
}

// TestJobClientCannotNameStepSettings: how many replicas or members step
// at once is the operator's setting, not part of the wire surface, and no
// ensemble has a step timeout: a request naming either is rejected as an
// unknown field, and a request naming none keeps the job ID it always had.
func TestJobClientCannotNameStepSettings(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1})
	for _, tc := range []struct{ engine, params string }{
		{sched.NameParallelIslands, `{"StepWorkers": 4}`},
		{sched.NameParallelIslands, `{"StepTimeout": 1000000000}`},
		{sched.NamePortfolio, `{"Members": [{"Algo": "nsga2"}], "StepWorkers": 4}`},
		{sched.NamePortfolio, `{"Members": [{"Algo": "nsga2"}], "StepTimeout": 1000000000}`},
	} {
		req := zdtJob(tc.engine, 1, 5)
		req.Params = []byte(tc.params)
		_, _, err := s.Submit(req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s params %s: got %v, want RequestError", tc.engine, tc.params, err)
		}
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("rejected submissions leaked %d jobs", got)
	}
	req := zdtJob(sched.NameParallelIslands, 1, 5)
	req.Params = []byte(`{"Replicas": 3, "MigrationEvery": 2}`)
	if view, _, err := s.Submit(req); err != nil || view.ID != "ec505deb596ad2d1bff4144a" {
		t.Fatalf("submit: ID %s, err %v", view.ID, err)
	}
}

// TestAdmissionRejectsHugeRobustCheaply: a submission asking for 10^7
// robustness samples is a 400, rejected before anything sized by the count
// is built (at about 600 B per sample, that would be 6 GB).
func TestAdmissionRejectsHugeRobustCheaply(t *testing.T) {
	h := newTestServer(t, Config{Slots: 1}).Handler()
	body := `{"problem":{"name":"integrator","robust":10000000},"engine":"nsga2"}`
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting the request allocated %d bytes, want under 1 MB", d)
	}
}

// TestAdmissionRefusesParamsCheaply: a submission just under the body cap
// whose params are an array of zeros is a 400 — for an engine that takes
// no params, and for one whose params struct cannot hold an array — and
// admission refuses it before canonicalizing the params, which would
// build a generic tree of the whole array (3 MB and more).
func TestAdmissionRefusesParamsCheaply(t *testing.T) {
	h := newTestServer(t, Config{Slots: 1}).Handler()
	for _, engine := range []string{"nsga2", "sacga"} {
		head := `{"problem":{"name":"zdt1"},"engine":"` + engine + `","params":[`
		body := head + strings.Repeat("0,", (maxSubmitBytes-len(head)-3)/2) + "0]}"
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s, %d-byte body: status %d (%s), want 400", engine, len(body), rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s: refusing the request allocated %d bytes, want under 1 MB", engine, d)
		}
	}
}

// TestSubmitBodyCapped: a 32 MiB submission is refused 413 once its body
// passes maxSubmitBytes, before admission parses any of it: its params, an
// array of zeros, are never decoded or canonicalized.
func TestSubmitBodyCapped(t *testing.T) {
	h := newTestServer(t, Config{Slots: 1}).Handler()
	params := strings.Repeat("0,", 16<<20) + "0"
	body := `{"problem":{"name":"zdt1"},"engine":"nsga2","params":[` + params + `]}`
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Fatalf("refusing the request allocated %d bytes, want under 4 MB", d)
	}
}

// TestDrainRestartResume is the durability property end to end: drain a
// server mid-run, boot a fresh one on the same directory, and the resumed
// job must finish bit-identically to one that was never interrupted.
func TestDrainRestartResume(t *testing.T) {
	dir := t.TempDir()
	build := testBuild(500 * time.Microsecond)
	req := zdtJob("sacga", 21, 40)
	req.Options.PopSize = 16

	s1 := newTestServer(t, Config{Slots: 2, Workers: 1, Dir: dir, CheckpointEvery: 1, Build: build})
	view, _, err := s1.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitGen(t, s1, view.ID, 5)
	if interrupted := s1.Drain(); interrupted != 1 {
		t.Fatalf("Drain interrupted %d jobs, want 1", interrupted)
	}

	// The armed checkpoint itself belongs to the restarted server's worker,
	// which clears it on the job's first turn; the recovery log line that
	// New writes is the race-free witness that it was armed.
	var logs syncLog
	s2 := newTestServer(t, Config{Slots: 2, Workers: 1, Dir: dir, CheckpointEvery: 1, Build: build,
		Log: log.New(&logs, "", 0)})
	if _, ok := s2.job(view.ID); !ok {
		t.Fatal("restarted server did not recover the job")
	}
	armed := regexp.MustCompile(`job ` + regexp.QuoteMeta(view.ID) + ` resumes from \S+ \(gen \d+\)`)
	if !armed.MatchString(logs.String()) {
		t.Fatalf("recovered job has no checkpoint armed; log:\n%s", logs.String())
	}
	// Resubmitting the identical request attaches to the recovered job.
	v2, deduped, err := s2.Submit(req)
	if err != nil || !deduped || v2.ID != view.ID {
		t.Fatalf("resubmit after restart: id=%s deduped=%v err=%v", v2.ID, deduped, err)
	}
	res := waitTerminal(t, s2, view.ID)
	if res.State != StateDone {
		t.Fatalf("resumed job state %s (err %q)", res.State, res.Error)
	}
	frontsEqual(t, "resumed", res.Front, soloRun(t, build, req))

	// A third boot serves the terminal result straight from <id>.done.
	s3 := newTestServer(t, Config{Slots: 1, Dir: dir, Build: build})
	j3, ok := s3.job(view.ID)
	if !ok {
		t.Fatal("third boot lost the job")
	}
	res3, terminal := j3.Result()
	if !terminal || res3.State != StateDone {
		t.Fatalf("third boot: terminal=%v state=%s", terminal, res3.State)
	}
	frontsEqual(t, "replayed result", res3.Front, res.Front)
}

// TestDrainIdempotent: a second Drain is a no-op and reports zero.
func TestDrainIdempotent(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1})
	if n := s.Drain(); n != 0 {
		t.Fatalf("first drain of idle server: %d", n)
	}
	if n := s.Drain(); n != 0 {
		t.Fatalf("second drain: %d", n)
	}
	if _, _, err := s.Submit(zdtJob("nsga2", 1, 5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
}
