package serve

import (
	"errors"
	"math"
	"sync"

	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/probspec"
	"sacga/internal/search"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: admitted, no generation executed yet.
	StateQueued State = "queued"
	// StateRunning: at least one turn taken, more to come.
	StateRunning State = "running"
	// StateDone: budget consumed (generations or MaxEvals), final front
	// available.
	StateDone State = "done"
	// StateDegraded: evaluation faults ended the run early; the engine
	// stayed valid, so the best-so-far front is served — the job-status
	// analogue of cmd/sacga exit code 4.
	StateDegraded State = "degraded"
	// StateCancelled: cancelled by the client; best-so-far front served.
	StateCancelled State = "cancelled"
	// StateFailed: the run ended with no trustworthy front (bad
	// configuration at Init, a watchdog-abandoned runaway step, an
	// unreadable checkpoint).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final: the job will never be
// stepped again and its result is frozen.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateDegraded, StateCancelled, StateFailed:
		return true
	}
	return false
}

// errCancelled is recorded on client-cancelled jobs.
var errCancelled = errors.New("serve: cancelled by client")

// maxSubscribers caps the SSE streams one job serves at once: publish
// walks every one of them under the job's lock, on the scheduler slot,
// every generation.
const maxSubscribers = 32

// errStreamsFull refuses a stream past maxSubscribers; HTTP maps it to
// 429, as it does a full job table.
var errStreamsFull = errors.New("serve: job has too many stream subscribers")

// Job is one admitted optimization run. The stepping fields (eng, prob,
// opts, hvObs, restoreCP, initted) belong to whichever goroutine holds the
// job's turn — the turn queue guarantees exactly one at a time — and are
// never read under mu; everything the HTTP surface reads lives behind mu.
type Job struct {
	ID     string
	Spec   probspec.Spec
	Engine string
	Opts   search.JobOptions
	rawReq []byte // canonical request JSON, persisted as <id>.job

	// Stepper-owned state.
	eng       search.Engine
	prob      objective.Problem
	opts      search.Options
	hvObs     *search.HypervolumeObserver
	restoreCP *search.Checkpoint // non-nil: first turn restores instead of Init
	initted   bool
	sinceCkpt int // generations since the last durable checkpoint

	mu        sync.Mutex
	state     State
	gen       int
	evals     int64
	hv        *float64
	err       error
	front     []FrontPoint // frozen at terminal states
	cancelled bool
	subs      map[chan FrameEvent]struct{}
}

func newJob(ad *admitted) *Job {
	return &Job{
		ID:     ad.id,
		Spec:   ad.spec,
		Engine: ad.engine,
		Opts:   ad.wireOpts,
		rawReq: ad.rawReq,
		state:  StateQueued,
		subs:   map[chan FrameEvent]struct{}{},
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// View assembles the wire-facing status snapshot.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view()
}

// view is View under j.mu.
func (j *Job) view() JobView {
	v := JobView{
		ID:      j.ID,
		Problem: j.Spec,
		Engine:  j.Engine,
		Options: j.Opts,
		State:   j.state,
		Gen:     j.gen,
		Evals:   j.evals,
		HV:      j.hv,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// Result assembles the wire-facing result. ok is false until the job is
// terminal — the front is only frozen then.
func (j *Job) Result() (ResultView, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return ResultView{}, false
	}
	v := ResultView{ID: j.ID, State: j.state, Gen: j.gen, Evals: j.evals, Front: j.front}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v, true
}

// markRunning flips queued → running at the job's first turn.
func (j *Job) markRunning() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
	}
	j.mu.Unlock()
}

// cancel requests cancellation. The job finalizes with its best-so-far
// front at its next turn (a generation in flight completes first — the
// same boundary cmd/sacga's first Ctrl-C honors). Returns false when the
// job is already terminal.
func (j *Job) cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancelled = true
	return true
}

// takeCancel reports whether cancellation was requested.
func (j *Job) takeCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// publish updates the progress view and fans the frame out to the
// subscribers. Sends never block the scheduler: a subscriber whose buffer
// is full misses that frame (the stream is a progress feed, not the result
// channel).
func (j *Job) publish(ev FrameEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gen, j.evals, j.hv = ev.Gen, ev.Evals, ev.HV
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finalize freezes the job in a terminal state with an optional error and
// front snapshot, and releases every subscriber (a closed channel is the
// stream's end-of-job signal).
func (j *Job) finalize(state State, err error, front []FrontPoint, gen int, evals int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.err = err
	j.front = front
	if gen > 0 || evals > 0 {
		j.gen, j.evals = gen, evals
	}
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
}

// closeSubs releases subscribers without finalizing — the drain path for
// jobs that stay resumable on disk.
func (j *Job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
}

// subscribe registers a frame channel: closed at once when the job is
// already terminal, refused with errStreamsFull when the job serves
// maxSubscribers streams. The snapshot view reflects the subscription
// instant, so the stream handler can emit a consistent first event.
func (j *Job) subscribe(buf int) (ch chan FrameEvent, snapshot JobView, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal := j.state.Terminal()
	if !terminal && len(j.subs) >= maxSubscribers {
		return nil, JobView{}, errStreamsFull
	}
	ch = make(chan FrameEvent, buf)
	if terminal {
		close(ch)
	} else {
		j.subs[ch] = struct{}{}
	}
	return ch, j.view(), nil
}

// unsubscribe removes a channel registered by subscribe.
func (j *Job) unsubscribe(ch chan FrameEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// snapshotFront deep-copies a population's first front into wire form. The
// engine's buffers are recycled between steps, so the copy must happen
// while the caller holds the job's turn. Quarantined individuals — stamped
// +Inf by the fault path — are not solutions and are dropped: the wire
// front must survive JSON, which carries no ±Inf.
func snapshotFront(front ga.Population) []FrontPoint {
	out := make([]FrontPoint, 0, len(front))
	for _, ind := range front {
		if !finitePoint(ind) {
			continue
		}
		out = append(out, FrontPoint{
			X:          append([]float64(nil), ind.X...),
			Objectives: append([]float64(nil), ind.Objectives...),
			Violation:  ind.Violation,
		})
	}
	return out
}

// finitePoint reports whether every served field of ind is JSON-encodable.
func finitePoint(ind *ga.Individual) bool {
	if math.IsInf(ind.Violation, 0) || math.IsNaN(ind.Violation) {
		return false
	}
	for _, o := range ind.Objectives {
		if math.IsInf(o, 0) || math.IsNaN(o) {
			return false
		}
	}
	return true
}

// finiteHV boxes a hypervolume score for the wire, dropping the +Inf
// "nothing projected yet" sentinel JSON cannot carry.
func finiteHV(hv float64) *float64 {
	if math.IsInf(hv, 0) || math.IsNaN(hv) {
		return nil
	}
	return &hv
}
