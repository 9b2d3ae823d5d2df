// Tests of the per-connection gob stream that Request and Reply payloads
// ride: type descriptors cross a connection once, heartbeats interleave
// with replies without touching the stream, and a reply that decodes but
// is wrong taints the link like a torn frame — while every run stays
// bit-identical to the in-process scheduler.
package shard

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/nsga2"
	"sacga/internal/objective"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// recordingConn keeps a copy of every Write: after the handshake, each
// one is a whole request frame.
type recordingConn struct {
	fleet.Conn
	mu     sync.Mutex
	frames [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.frames = append(c.frames, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// payloadOf unframes one whole frame.
func payloadOf(t testing.TB, frame []byte) []byte {
	t.Helper()
	_, payload, err := fleet.ReadFrame(bytes.NewReader(frame), "test")
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// reframe seals payload as a reply frame. It runs inside worker hooks,
// off the test goroutine, so it cannot fail the test; WriteFrame into a
// buffer fails only past the payload cap.
func reframe(payload []byte) []byte {
	var buf bytes.Buffer
	fleet.WriteFrame(&buf, fleet.FrameReply, payload)
	return buf.Bytes()
}

// gobTypeDefs counts the type definitions in one payload. A gob stream is
// a sequence of messages — a length, then a type id, then the body — and
// a negative id, which gob's signed encoding marks with the low bit,
// defines a type.
func gobTypeDefs(t *testing.T, payload []byte) int {
	t.Helper()
	defs := 0
	for len(payload) > 0 {
		size, k := gobUint(t, payload)
		if k+int(size) > len(payload) {
			t.Fatalf("gob message of %d bytes overruns the payload", size)
		}
		if id, _ := gobUint(t, payload[k:k+int(size)]); id&1 == 1 {
			defs++
		}
		payload = payload[k+int(size):]
	}
	return defs
}

// gobUint decodes one gob unsigned integer: a byte below 0x80 is the
// value; otherwise it is the negated count of big-endian bytes that follow.
func gobUint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	if len(b) == 0 {
		t.Fatal("empty gob message")
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	if n > 8 || 1+n > len(b) {
		t.Fatalf("bad gob uint prefix %#x", b[0])
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// TestStreamSendsTypesOnce: over one link, the first Request and the first
// Reply carry gob type descriptors and the later ones carry values only,
// so steady-state frames are smaller than the first. Every request
// decodes, on a stream of its own, to the checkpoint that was sent, and
// every reply is the step an in-process engine takes from it.
func TestStreamSendsTypesOnce(t *testing.T) {
	var (
		mu      sync.Mutex
		replies [][]byte
	)
	addr := loopbackWorker(t, func(c net.Conn) {
		ServeWorker(c, c, WorkerConfig{Build: buildTestProblem, TransformReply: func(_ StepInfo, frame []byte) []byte {
			mu.Lock()
			replies = append(replies, bytes.Clone(frame))
			mu.Unlock()
			return frame
		}})
	})
	c, err := (&fleet.TCPTransport{Address: addr, Hello: fleet.HandshakeConfig{Problem: "zdt1"}}).Dial()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{Conn: c}
	link := fleet.NewLink(rec, addr)
	defer link.Close()

	opts := search.Options{PopSize: 8, Generations: 10, Seed: testSeed}
	local := new(nsga2.Engine)
	if err := local.Init(zdt1Prob(t), opts); err != nil {
		t.Fatal(err)
	}
	const steps = 4
	var sent []*search.Checkpoint
	for epoch := 0; epoch < steps; epoch++ {
		cp := local.Checkpoint()
		sent = append(sent, cp)
		req := &Request{Replica: 0, Epoch: epoch, Algo: "nsga2", Spec: "zdt1", Opts: ToWire(opts), State: cp}
		reply, err := roundTrip(link, req, 0, 0)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err := local.Step(); err != nil {
			t.Fatal(err)
		}
		if reply.Err != "" || !reflect.DeepEqual(reply.State, local.Checkpoint()) {
			t.Fatalf("epoch %d: reply (err %q) is not the in-process step", epoch, reply.Err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for dir, frames := range map[string][][]byte{"request": rec.frames, "reply": replies} {
		if len(frames) != steps {
			t.Fatalf("%d %s frames, want %d", len(frames), dir, steps)
		}
		for i, f := range frames {
			defs := gobTypeDefs(t, payloadOf(t, f))
			switch {
			case i == 0 && defs == 0:
				t.Fatalf("first %s carries no type descriptors", dir)
			case i > 0 && defs != 0:
				t.Fatalf("%s %d carries %d type descriptors again", dir, i, defs)
			case i > 0 && len(f) >= len(frames[0]):
				t.Fatalf("%s %d is %d bytes, not below the first frame's %d", dir, i, len(f), len(frames[0]))
			}
		}
	}
	in := fleet.NewStream() // the worker's side of the request stream
	for i, f := range rec.frames {
		var req Request
		if err := in.Decode("test", payloadOf(t, f), &req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req.State, sent[i]) {
			t.Fatalf("request %d decodes to another checkpoint than was sent", i)
		}
	}
}

// heartbeatCounter counts the heartbeat frames written through it: the
// worker writes each frame with one Write.
type heartbeatCounter struct {
	io.Writer
	beats *atomic.Int64
}

func (h heartbeatCounter) Write(p []byte) (int, error) {
	if len(p) > 4 && fleet.FrameType(p[4]) == fleet.FrameHeartbeat {
		h.beats.Add(1)
	}
	return h.Writer.Write(p)
}

// longerOpts is the suite's ensemble over more epochs, for runs that
// must see many requests on one connection.
func longerOpts(extra any) search.Options {
	opts := baseOpts()
	opts.Generations = 20
	opts.Extra = extra
	return opts
}

// slowProblem delays every evaluation without changing its result. The
// delay must sit inside the step: heartbeats start after OnStep returns,
// which is what lets an OnStep sleep simulate a wedged worker.
type slowProblem struct {
	objective.Problem
	delay time.Duration
}

func (p *slowProblem) Evaluate(x []float64) objective.Result {
	time.Sleep(p.delay)
	return p.Problem.Evaluate(x)
}

// TestHeartbeatsBetweenReplies: a worker whose heartbeat period is far
// below its step time sends heartbeats between replies on one link, epoch
// after epoch. Heartbeats are self-contained gobs off the stream, so the
// replies that follow them still decode, and the run equals the
// in-process one.
func TestHeartbeatsBetweenReplies(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, longerOpts(inProcessOpts("nsga2", nil).Extra))
	if err != nil {
		t.Fatal(err)
	}
	var beats, steps atomic.Int64
	addr := loopbackWorker(t, func(c net.Conn) {
		ServeWorker(c, heartbeatCounter{Writer: c, beats: &beats}, WorkerConfig{
			Build: func(spec string) (objective.Problem, error) {
				prob, err := buildTestProblem(spec)
				return &slowProblem{Problem: prob, delay: time.Millisecond}, err // 8 evaluations a step
			},
			OnStep: func(StepInfo) { steps.Add(1) },
		})
	})
	dials := new(atomic.Int64)
	pool := fleet.NewPool(dialCounter{
		Transport: &fleet.TCPTransport{Address: addr, Hello: fleet.HandshakeConfig{Problem: "zdt1"}},
		dials:     dials,
	})
	defer pool.Close()
	opts := tcpOpts(nil)
	p := opts.Extra.(*Params)
	p.Pool, p.HeartbeatEvery = pool, time.Millisecond
	res, err := supervisedRun(t, NameShardedIslands, longerOpts(p))
	if err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials, want every epoch on one link", n)
	}
	b, s := beats.Load(), steps.Load()
	if b < s {
		t.Fatalf("%d heartbeats over %d requests, want at least one per request", b, s)
	}
	t.Logf("%d heartbeats over %d requests on one link", b, s)
	if res.Evals != ref.Evals {
		t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
	}
	popsIdentical(t, "final population", res.Final, ref.Final)
}

// tamperedReply hits replica 1's epoch-3 step, first attempt only.
func tamperedReply(info StepInfo) bool {
	return !info.Init && info.Replica == 1 && info.Epoch == 3 && info.Attempt == 0
}

// TestBadRepliesTaintTheLink: a reply whose frame passes the CRC but whose
// payload is wrong — bytes left over after the Reply, or a successful
// Reply with no State — fails the round trip with a typed
// *search.CorruptError, so the session kills the link. The retry runs on a
// fresh connection, and the run still matches the in-process one.
func TestBadRepliesTaintTheLink(t *testing.T) {
	ref, err := supervisedRun(t, sched.NameParallelIslands, inProcessOpts("nsga2", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func() func(StepInfo, []byte) []byte // one per connection
	}{
		{"leftover-bytes", func() func(StepInfo, []byte) []byte {
			return func(info StepInfo, frame []byte) []byte {
				if !tamperedReply(info) {
					return frame
				}
				_, payload, _ := fleet.ReadFrame(bytes.NewReader(frame), "tamper")
				return reframe(append(bytes.Clone(payload), 0))
			}
		}},
		{"no-state", func() func(StepInfo, []byte) []byte {
			// Re-encode every reply on a stream of the tamper's own, in
			// step with the coordinator's decoder, so only the State goes.
			in, out := fleet.NewStream(), fleet.NewStream()
			return func(info StepInfo, frame []byte) []byte {
				_, payload, _ := fleet.ReadFrame(bytes.NewReader(frame), "tamper")
				var reply Reply
				if err := in.Decode("tamper", payload, &reply); err != nil {
					return nil // the coordinator then sees a torn stream
				}
				if tamperedReply(info) {
					reply.State = nil
				}
				payload, err := out.Encode(&reply)
				if err != nil {
					return nil
				}
				return reframe(payload)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := loopbackWorker(t, func(c net.Conn) {
				ServeWorker(c, c, WorkerConfig{Build: buildTestProblem, TransformReply: tc.tamper()})
			})
			tr := &fleet.TCPTransport{Address: addr, Hello: fleet.HandshakeConfig{Problem: "zdt1"}}

			// The round trip itself: the typed error.
			c, err := tr.Dial()
			if err != nil {
				t.Fatal(err)
			}
			link := fleet.NewLink(c, addr)
			defer link.Close()
			req := &Request{Replica: 1, Epoch: 3, Algo: "nsga2", Spec: "zdt1",
				Opts: ToWire(seedOpts), State: seedCheckpoint(t)}
			_, err = roundTrip(link, req, 0, 0)
			var ce *search.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("round trip error is %T (%v), want *search.CorruptError", err, err)
			}

			// A run over a one-worker pool: the tainted link is killed,
			// the step replays on a second dial, and nothing shows.
			dials := new(atomic.Int64)
			pool := fleet.NewPool(dialCounter{Transport: tr, dials: dials})
			defer pool.Close()
			opts := tcpOpts(nil)
			opts.Extra.(*Params).Pool = pool
			res, err := supervisedRun(t, NameShardedIslands, opts)
			if err != nil {
				t.Fatalf("bad reply was not masked: %v", err)
			}
			if n := dials.Load(); n != 2 {
				t.Fatalf("%d dials, want 2: the bad reply's link must be killed and redialed", n)
			}
			if res.Evals != ref.Evals {
				t.Fatalf("evals %d != in-process %d", res.Evals, ref.Evals)
			}
			popsIdentical(t, "final population", res.Final, ref.Final)
		})
	}
}
