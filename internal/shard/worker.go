package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/ga"
	"sacga/internal/objective"
	"sacga/internal/search"
)

// DefaultHeartbeatEvery is the worker's heartbeat period while a step is
// in flight, when WorkerConfig does not set one.
const DefaultHeartbeatEvery = 200 * time.Millisecond

// WorkerConfig configures ServeWorker.
type WorkerConfig struct {
	// Build constructs the problem a Spec names. Required. Called once per
	// distinct spec; the result is cached, so repeated requests for the
	// same problem do not rebuild it.
	Build func(spec string) (objective.Problem, error)
	// HeartbeatEvery is the heartbeat period while a step is in flight
	// (default DefaultHeartbeatEvery; negative disables heartbeats — the
	// chaos suite's simulated wedge). It must stay under the heartbeat
	// gap of every coordinator this worker serves (Params.HeartbeatTimeout,
	// 15 s unless set), or a long step is declared dead.
	HeartbeatEvery time.Duration
	// OnStep, when non-nil, runs before each request is processed — the
	// chaos suite's injection point (crash here to simulate a worker dying
	// mid-epoch, sleep to simulate a wedge).
	OnStep func(StepInfo)
	// TransformReply, when non-nil, may rewrite the reply before it is
	// written — the chaos suite's corruption point (flip a bit to exercise
	// the coordinator's CRC path, truncate it to tear the stream
	// mid-frame). It sees the whole reply frame as it would go on the
	// wire: header, the Reply's bytes on the connection's gob stream, and
	// CRC. The frame aliases the connection's Stream buffer and is valid
	// only during the call: a hook that keeps it must copy it.
	TransformReply func(StepInfo, []byte) []byte
	// AfterReply, when non-nil, runs after each reply frame is written —
	// the chaos suite's torn-stream point (exit here and a truncated
	// reply is the connection's last bytes, a drop mid-frame).
	AfterReply func(StepInfo)
	// Handshake configures the worker side of the dial-time handshake
	// (fleet.ServerHandshake). The zero value advertises the real build
	// fingerprint; a Check hook is installed by ServeWorker to vet the
	// coordinator's announced problem through Build unless one is set.
	Handshake fleet.HandshakeConfig
}

// StepInfo identifies one request for the test hooks.
type StepInfo struct {
	Replica int
	Epoch   int
	Attempt int
	Init    bool
}

// ServeWorker runs the worker side of the shard protocol on one stream:
// answer the dial-time handshake, then read a Request frame, build/restore
// the replica engine, advance it one generation, write the Reply frame;
// repeat until r closes (clean EOF → nil — the coordinator's shutdown
// signal is closing the connection). Heartbeat frames are emitted while a
// step is in flight.
//
// The worker holds no replica state between requests — every request
// carries everything needed to replay it, which is what lets the
// coordinator mask this process being SIGKILLed (or this connection being
// dropped) at any moment. The only per-connection state is the gob
// stream's table of types already sent. One stdio process serves one
// stream; a TCP daemon (cmd/sacgaw) calls this once per accepted
// connection, concurrently.
func ServeWorker(r io.Reader, w io.Writer, cfg WorkerConfig) error {
	if cfg.Build == nil {
		return fmt.Errorf("shard: ServeWorker requires a Build hook")
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	problems := make(map[string]objective.Problem)
	hs := cfg.Handshake
	if hs.Check == nil {
		// Vet the coordinator's announced problem at dial time: a worker
		// that cannot build it must reject the handshake, not fail the
		// first request mid-run.
		hs.Check = func(peer fleet.Hello) error {
			if peer.Problem == "" {
				return nil
			}
			if _, ok := problems[peer.Problem]; ok {
				return nil
			}
			prob, err := cfg.Build(peer.Problem)
			if err != nil {
				return fmt.Errorf("build problem %q: %v", peer.Problem, err)
			}
			problems[peer.Problem] = prob
			return nil
		}
	}
	if _, err := fleet.ServerHandshake(r, w, hs); err != nil {
		if err == io.EOF {
			return nil // dialed and hung up before the hello (port probe)
		}
		return err
	}
	// One codec per call: it lives and dies with this connection, so a
	// redialed or respawned worker starts on a fresh stream, as does the
	// coordinator's new Link.
	stream := fleet.NewStream()
	for {
		typ, payload, err := stream.ReadFrame(r, workerSrc)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if typ != fleet.FrameRequest {
			return &search.CorruptError{Path: workerSrc, Reason: fmt.Sprintf("unexpected frame type %d", typ)}
		}
		var req Request // fresh: no replica state survives the last request
		if err := stream.Decode(workerSrc, payload, &req); err != nil {
			return err // the stream is tainted: drop the connection
		}
		info := StepInfo{Replica: req.Replica, Epoch: req.Epoch, Attempt: req.Attempt, Init: req.Init}
		if cfg.OnStep != nil {
			cfg.OnStep(info)
		}
		stop := startHeartbeats(w, cfg.HeartbeatEvery, req.Replica, req.Epoch)
		reply := handleRequest(&req, problems, cfg.Build)
		// stop returns once no heartbeat is being written, so the reply
		// is the only writer on w from here on.
		stop()
		frame, err := stream.EncodeFrame(fleet.FrameReply, reply)
		if err != nil {
			return err
		}
		// The frame aliases the stream's buffer: it is transformed and
		// written before the next EncodeFrame reuses it.
		if cfg.TransformReply != nil {
			frame = cfg.TransformReply(info, frame)
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		if cfg.AfterReply != nil {
			cfg.AfterReply(info)
		}
	}
}

// workerSrc names the worker's stream in errors.
const workerSrc = "shard: worker stream"

// startHeartbeats emits heartbeat frames every period until the returned
// stop function is called; stop returns once no heartbeat is being or
// will be written, so the heartbeats and the reply never write w at once.
// A non-positive period disables them.
func startHeartbeats(w io.Writer, period time.Duration, replica, epoch int) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	h := &heartbeat{w: w, period: period, beat: Heartbeat{Replica: replica, Epoch: epoch}}
	h.mu.Lock() // the first tick waits for h.t
	h.t = time.AfterFunc(period, h.tick)
	h.mu.Unlock()
	return h.stop
}

// heartbeat is one request's heartbeat timer. Until its first tick it
// runs no goroutine and has encoded nothing, so a step that ends sooner,
// as most do, costs one timer.
type heartbeat struct {
	w       io.Writer
	period  time.Duration
	beat    Heartbeat
	mu      sync.Mutex // held while a tick writes
	stopped bool
	payload []byte
	t       *time.Timer
}

// tick writes one heartbeat frame and re-arms the timer.
func (h *heartbeat) tick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return
	}
	if h.payload == nil {
		// A self-contained gob, off the connection's stream: the
		// coordinator never decodes heartbeats, so one that carried a type
		// definition a later Reply relies on would break that Reply.
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&h.beat); err != nil {
			h.stopped = true
			return
		}
		h.payload = payload.Bytes()
	}
	if err := fleet.WriteFrame(h.w, fleet.FrameHeartbeat, h.payload); err != nil {
		h.stopped = true // pipe gone; the main loop will notice too
		return
	}
	h.t.Reset(h.period)
}

// stop ends the heartbeats, after the write of a tick in progress.
func (h *heartbeat) stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	h.t.Stop()
}

// handleRequest performs one replica step (or init). Engine-level failures
// are reported inside the Reply — with the post-step checkpoint when the
// engine completed its generation under quarantine — never as a transport
// error: the transport layer is reserved for faults that taint the stream.
func handleRequest(req *Request, problems map[string]objective.Problem, build func(string) (objective.Problem, error)) *Reply {
	reply := &Reply{Replica: req.Replica, Epoch: req.Epoch}
	base, ok := problems[req.Spec]
	if !ok {
		var err error
		base, err = build(req.Spec)
		if err != nil {
			reply.Err = fmt.Sprintf("build problem %q: %v", req.Spec, err)
			return reply
		}
		problems[req.Spec] = base
	}
	eng, err := search.New(req.Algo)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	// A fresh counter per request mirrors sched's per-child counters: the
	// engine's Evals() covers exactly its own evaluations, restored
	// baseline included, so the coordinator can sum replicas for the
	// ensemble budget.
	prob := objective.NewCounter(base)
	opts := req.Opts
	if req.Initial != nil {
		if opts.Initial, err = ga.UnpackPopulation(req.Initial); err != nil {
			reply.Err = fmt.Sprintf("shard: initial population: %v", err)
			return reply
		}
	}
	var stepErr error
	if req.Init {
		if err := eng.Init(prob, opts); err != nil {
			reply.Err = err.Error()
			return reply
		}
	} else {
		if req.State == nil {
			reply.Err = fmt.Sprintf("shard: replica %d request carries no state", req.Replica)
			return reply
		}
		if err := eng.Restore(prob, opts, req.State); err != nil {
			reply.Err = err.Error()
			return reply
		}
		if !eng.Done() {
			// Guard the step so an engine panic degrades to a droppable
			// reply error instead of killing the worker (and with it any
			// diagnostic value in the reply). No watchdog: the
			// coordinator's lease and heartbeat deadlines reclaim a hung
			// worker process.
			stepErr = search.GuardedStep(eng, 0)
		}
	}
	reply.State = eng.Checkpoint()
	if stepErr != nil {
		reply.Err = stepErr.Error()
	}
	return reply
}
