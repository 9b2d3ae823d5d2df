package shard

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sacga/internal/fleet"
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
	// chaos suite's simulated wedge).
	HeartbeatEvery time.Duration
	// OnStep, when non-nil, runs before each request is processed — the
	// chaos suite's injection point (crash here to simulate a worker dying
	// mid-epoch, sleep to simulate a wedge).
	OnStep func(StepInfo)
	// TransformReply, when non-nil, may rewrite the fully sealed reply
	// frame bytes before they are written — the chaos suite's corruption
	// point (flip a bit to exercise the coordinator's CRC path, truncate
	// it to tear the stream mid-frame).
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
// dropped) at any moment. One stdio process serves one stream; a TCP
// daemon (cmd/sacgaw) calls this once per accepted connection,
// concurrently.
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
	var wmu sync.Mutex // serializes reply and heartbeat frames
	for {
		typ, payload, err := fleet.ReadFrame(r, "shard: worker stream")
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if typ != fleet.FrameRequest {
			return &search.CorruptError{Path: "shard: worker stream", Reason: fmt.Sprintf("unexpected frame type %d", typ)}
		}
		var req Request
		if err := decodePayload("shard: worker stream", payload, &req); err != nil {
			return err
		}
		info := StepInfo{Replica: req.Replica, Epoch: req.Epoch, Attempt: req.Attempt, Init: req.Init}
		if cfg.OnStep != nil {
			cfg.OnStep(info)
		}
		period := cfg.HeartbeatEvery
		if req.HeartbeatEvery > 0 && period > 0 {
			period = req.HeartbeatEvery // coordinator tuning; a disabled worker stays disabled
		}
		stop := startHeartbeats(w, &wmu, period, req.Replica, req.Epoch)
		reply := handleRequest(&req, problems, cfg.Build)
		stop()
		frame, err := sealReply(reply)
		if err != nil {
			return err
		}
		if cfg.TransformReply != nil {
			frame = cfg.TransformReply(info, frame)
		}
		wmu.Lock()
		_, err = w.Write(frame)
		wmu.Unlock()
		if err != nil {
			return err
		}
		if cfg.AfterReply != nil {
			cfg.AfterReply(info)
		}
	}
}

// sealReply builds the complete reply frame bytes (so TransformReply can
// corrupt the real wire form, CRC included).
func sealReply(reply *Reply) ([]byte, error) {
	payload, err := encodePayload(reply)
	if err != nil {
		return nil, err
	}
	var buf writerBuffer
	if err := fleet.WriteFrame(&buf, fleet.FrameReply, payload); err != nil {
		return nil, err
	}
	return buf.b, nil
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// startHeartbeats emits heartbeat frames every period until the returned
// stop function is called. A non-positive period disables them.
func startHeartbeats(w io.Writer, wmu *sync.Mutex, period time.Duration, replica, epoch int) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		payload, err := encodePayload(&Heartbeat{Replica: replica, Epoch: epoch})
		if err != nil {
			return
		}
		for {
			select {
			case <-done:
				return
			case <-t.C:
				wmu.Lock()
				err := fleet.WriteFrame(w, fleet.FrameHeartbeat, payload)
				wmu.Unlock()
				if err != nil {
					return // pipe gone; the main loop will notice too
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
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
	opts := req.Opts.Options()
	var stepErr error
	if req.Init {
		if err := eng.Init(prob, opts); err != nil {
			reply.Err = err.Error()
			return reply
		}
	} else {
		cp, err := search.DecodeCheckpoint(fmt.Sprintf("shard: replica %d request", req.Replica), req.Ckpt)
		if err != nil {
			reply.Err = err.Error()
			return reply
		}
		if err := eng.Restore(prob, opts, cp); err != nil {
			reply.Err = err.Error()
			return reply
		}
		if !eng.Done() {
			// Guard the step so an engine panic degrades to a droppable
			// reply error instead of killing the worker (and with it any
			// diagnostic value in the reply).
			stepErr = guardedEngineStep(eng)
		}
	}
	ckpt, err := search.EncodeCheckpoint(eng.Checkpoint())
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	reply.Ckpt = ckpt
	reply.Evals = eng.Evals()
	reply.Gen = eng.Generation()
	reply.Done = eng.Done()
	if stepErr != nil {
		reply.Err = stepErr.Error()
	}
	return reply
}

// guardedEngineStep runs one Step under a recover, like sched.tryStep's
// unguarded path: process isolation already contains runaway state, so the
// in-process watchdog machinery is unnecessary here.
func guardedEngineStep(eng search.Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: replica step panicked: %v", r)
		}
	}()
	return eng.Step()
}
