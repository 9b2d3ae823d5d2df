package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"sacga/internal/probspec"
	"sacga/internal/search"
	"sacga/internal/shard"
)

// JobRequest is the submission wire schema: problem identity, engine name
// from the search registry, the wire subset of search.Options, and the
// engine's extension parameters as raw JSON (decoded into the registered
// extension struct at admission — unknown fields are rejected, so a typoed
// knob fails the request instead of silently running defaults).
type JobRequest struct {
	Problem probspec.Spec     `json:"problem"`
	Engine  string            `json:"engine"`
	Options search.JobOptions `json:"options"`
	Params  json.RawMessage   `json:"params,omitempty"`
}

// SubmitResponse answers a submission: the job's fingerprint ID and whether
// it deduplicated onto an already-known job (same ID = same
// result-determining configuration = same run; the execution is shared).
type SubmitResponse struct {
	ID      string `json:"id"`
	Deduped bool   `json:"deduped"`
	State   State  `json:"state"`
}

// JobView is the wire-facing status snapshot of a job.
type JobView struct {
	ID      string            `json:"id"`
	Problem probspec.Spec     `json:"problem"`
	Engine  string            `json:"engine"`
	Options search.JobOptions `json:"options"`
	State   State             `json:"state"`
	Gen     int               `json:"gen"`
	Evals   int64             `json:"evals"`
	HV      *float64          `json:"hv,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// ResultView is the wire-facing terminal result: the final (or best-so-far,
// for degraded/cancelled jobs) constrained non-dominated front. Go's
// float64 JSON encoding is exact (shortest round-trippable representation),
// so fronts compare bit-identical through this form.
type ResultView struct {
	ID    string       `json:"id"`
	State State        `json:"state"`
	Gen   int          `json:"gen"`
	Evals int64        `json:"evals"`
	Front []FrontPoint `json:"front"`
	Error string       `json:"error,omitempty"`
}

// FrontPoint is one Pareto-front individual on the wire.
type FrontPoint struct {
	X          []float64 `json:"x"`
	Objectives []float64 `json:"objectives"`
	Violation  float64   `json:"violation,omitempty"`
}

// FrameEvent is one generation's progress sample, the SSE stream payload.
// It carries scalars copied out of the pooled observer frame — never the
// frame or population themselves, which the engine recycles next Step.
type FrameEvent struct {
	Job      string   `json:"job"`
	Gen      int      `json:"gen"`
	Evals    int64    `json:"evals"`
	HV       *float64 `json:"hv,omitempty"`
	Pop      int      `json:"pop"`
	Feasible int      `json:"feasible"`
}

// eventFromFrame copies the wire-relevant scalars out of a live frame.
func eventFromFrame(jobID string, f *search.Frame, hv float64) FrameEvent {
	feasible := 0
	for _, ind := range f.Pop {
		if ind.Feasible() {
			feasible++
		}
	}
	return FrameEvent{
		Job:      jobID,
		Gen:      f.Gen,
		Evals:    f.Evals,
		HV:       finiteHV(hv),
		Pop:      len(f.Pop),
		Feasible: feasible,
	}
}

// RequestError is an admission rejection: the request itself is at fault
// (unknown engine, invalid problem, guardrail breach). HTTP maps it to 400.
type RequestError struct{ msg string }

// Error implements error.
func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// ErrTableFull is returned by Submit when MaxJobs is reached; HTTP maps it
// to 429.
var ErrTableFull = errors.New("serve: job table full")

// admitted is a validated, canonicalized submission ready to become a Job.
type admitted struct {
	id       string
	spec     probspec.Spec
	engine   string
	wireOpts search.JobOptions
	rawReq   []byte // canonical JobRequest JSON, the <id>.job payload
}

// admit validates a request end to end — engine registered, extension
// params decodable with no unknown fields, problem buildable, guardrails —
// and derives the job's fingerprint ID from the canonical form. No engine
// or problem state escapes admission; the job's first turn rebuilds both.
func (s *Server) admit(req JobRequest) (*admitted, error) {
	if req.Engine == "" {
		return nil, badRequest("serve: request missing engine name")
	}
	if _, err := search.New(req.Engine); err != nil {
		return nil, badRequest("serve: %v", err)
	}
	if req.Engine == shard.NameShardedIslands && s.cfg.Fleet == nil {
		// shard.Params' only worker source, Pool, is json:"-", so the
		// server's shared fleet is the only one a job could ever use;
		// without it the engine can only fail at its first turn. Reject
		// at admission instead.
		return nil, badRequest("serve: engine %q needs a worker fleet; start the server with -fleet", req.Engine)
	}
	// The params must fit the engine's struct before they are
	// canonicalized: Canon builds a generic tree of the whole document,
	// which a refused request must not get to pay for.
	if !noParams(req.Params) {
		proto, ok := search.NewExtra(req.Engine)
		if !ok {
			return nil, badRequest("serve: engine %q takes no params", req.Engine)
		}
		dec := json.NewDecoder(bytes.NewReader(req.Params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(proto); err != nil {
			return nil, badRequest("serve: params for %q: %v", req.Engine, err)
		}
	}
	canonParams, err := search.Canon(req.Params)
	if err != nil {
		return nil, badRequest("serve: params: %v", err)
	}
	if _, _, err := s.cfg.Build(req.Problem); err != nil {
		return nil, badRequest("serve: %v", err)
	}
	o := req.Options
	if o.PopSize < 0 || o.Generations < 0 || o.MaxEvals < 0 {
		return nil, badRequest("serve: negative option values")
	}
	if o.PopSize > s.cfg.MaxPopSize {
		return nil, badRequest("serve: pop_size %d exceeds limit %d", o.PopSize, s.cfg.MaxPopSize)
	}
	if o.Generations > s.cfg.MaxGenerations {
		return nil, badRequest("serve: generations %d exceeds limit %d", o.Generations, s.cfg.MaxGenerations)
	}
	canon := JobRequest{Problem: req.Problem, Engine: req.Engine, Options: o, Params: canonParams}
	rawReq, err := json.Marshal(canon)
	if err != nil {
		return nil, badRequest("serve: encode request: %v", err)
	}
	// "sacgad/v1" versions the key shape: a future schema change re-keys
	// rather than colliding with old checkpoints.
	id := search.Fingerprint("sacgad/v1", req.Problem, req.Engine, o, canonParams)
	return &admitted{id: id, spec: req.Problem, engine: req.Engine, wireOpts: o, rawReq: rawReq}, nil
}

// Submit admits a job. A request whose fingerprint matches a known job —
// including one recovered from disk after a restart — attaches to it
// instead of running twice; deduped reports that.
func (s *Server) Submit(req JobRequest) (view JobView, deduped bool, err error) {
	ad, err := s.admit(req)
	if err != nil {
		return JobView{}, false, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, false, ErrDraining
	}
	if j, ok := s.jobs[ad.id]; ok {
		s.mu.Unlock()
		return j.View(), true, nil
	}
	if len(s.jobs) >= s.cfg.MaxJobs {
		s.mu.Unlock()
		return JobView{}, false, ErrTableFull
	}
	j := newJob(ad)
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	if err := s.persistJob(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		if n := len(s.order); n > 0 && s.order[n-1] == j {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		return JobView{}, false, err
	}
	s.queue.push(j)
	return j.View(), false, nil
}

// Cancel requests cancellation of a job; it finalizes with its best-so-far
// front at its next turn. ok is false for unknown jobs; already reports the
// job was terminal already.
func (s *Server) Cancel(id string) (ok, already bool) {
	j, found := s.job(id)
	if !found {
		return false, false
	}
	return true, !j.cancel()
}

// persistJob writes the canonical request to <id>.job so a restarted server
// can rebuild the job table.
func (s *Server) persistJob(j *Job) error {
	if s.cfg.Dir == "" {
		return nil
	}
	return search.WriteFileAtomic(filepath.Join(s.cfg.Dir, j.ID+".job"), j.rawReq)
}

// persistResult writes the frozen terminal result to <id>.done; a restarted
// server serves it without re-running the job.
func (s *Server) persistResult(j *Job) {
	if s.cfg.Dir == "" {
		return
	}
	res, ok := j.Result()
	if !ok {
		return
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = search.WriteFileAtomic(filepath.Join(s.cfg.Dir, j.ID+".done"), data)
	}
	if err != nil {
		s.cfg.Log.Printf("serve: persist result %s: %v", j.ID, err)
	}
}

// noParams reports whether a request's params are absent or JSON null.
func noParams(raw json.RawMessage) bool {
	raw = bytes.TrimSpace(raw)
	return len(raw) == 0 || string(raw) == "null"
}

// decodeExtra rebuilds the engine's extension struct from a job's canonical
// request JSON. Returns nil when the job carries no params.
func decodeExtra(engine string, rawReq []byte) (any, error) {
	var req JobRequest
	if err := json.Unmarshal(rawReq, &req); err != nil {
		return nil, fmt.Errorf("serve: decode job request: %w", err)
	}
	if noParams(req.Params) {
		return nil, nil
	}
	proto, ok := search.NewExtra(engine)
	if !ok {
		return nil, fmt.Errorf("serve: engine %q takes no params", engine)
	}
	if err := json.Unmarshal(req.Params, proto); err != nil {
		return nil, fmt.Errorf("serve: decode params: %w", err)
	}
	return proto, nil
}
