package shard

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sacga/internal/fault"
	"sacga/internal/fleet"
	"sacga/internal/nsga2"
	"sacga/internal/search"
)

// sealFrame builds one complete frame's bytes.
func sealFrame(t testing.TB, typ fleet.FrameType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fleet.WriteFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCorrupt asserts a fleet.ReadFrame error is a typed *search.CorruptError.
func wantCorrupt(t *testing.T, what string, err error) {
	t.Helper()
	var ce *search.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: error is %T (%v), want *search.CorruptError", what, err, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xa5}, 4096)}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := fleet.WriteFrame(&buf, fleet.FrameType(1+i%3), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := fleet.ReadFrame(&buf, "test")
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != fleet.FrameType(1+i%3) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, 1+i%3)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := fleet.ReadFrame(&buf, "test"); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameTruncation: every torn prefix of a valid frame is a typed
// corruption (except the zero-byte cut, which is a clean EOF boundary).
// The cuts run through fault.Truncate on a real file — the same attack
// primitive the checkpoint torn-write suite uses.
func TestFrameTruncation(t *testing.T) {
	frame := sealFrame(t, fleet.FrameRequest, []byte("truncation victim payload"))
	dir := t.TempDir()
	for keep := len(frame) - 1; keep >= 0; keep-- {
		path := filepath.Join(dir, "frame")
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fault.Truncate(path, int64(keep)); err != nil {
			t.Fatal(err)
		}
		torn, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, rerr := fleet.ReadFrame(bytes.NewReader(torn), "test")
		if keep == 0 {
			if rerr != io.EOF {
				t.Fatalf("empty cut: %v, want io.EOF", rerr)
			}
			continue
		}
		if rerr == nil {
			t.Fatalf("keep=%d: torn frame decoded cleanly", keep)
		}
		wantCorrupt(t, "torn frame", rerr)
	}
}

// TestFrameFlipBit: flipping any single bit of a frame — header, payload
// or CRC — yields a typed corruption, never a clean decode or a panic.
// Every byte position is attacked through fault.FlipBit.
func TestFrameFlipBit(t *testing.T) {
	frame := sealFrame(t, fleet.FrameReply, []byte("bitflip victim payload"))
	dir := t.TempDir()
	for byteIdx := 0; byteIdx < len(frame); byteIdx++ {
		for _, bit := range []int64{0, 7} {
			path := filepath.Join(dir, "frame")
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fault.FlipBit(path, int64(byteIdx)*8+bit); err != nil {
				t.Fatal(err)
			}
			flipped, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, _, rerr := fleet.ReadFrame(bytes.NewReader(flipped), "test")
			if rerr == nil {
				t.Fatalf("byte %d bit %d: flipped frame decoded cleanly", byteIdx, bit)
			}
			wantCorrupt(t, "flipped frame", rerr)
		}
	}
}

// TestFrameOversizedLength: a length field past the cap is rejected before
// any allocation its value would imply.
func TestFrameOversizedLength(t *testing.T) {
	frame := sealFrame(t, fleet.FrameRequest, []byte("x"))
	// Overwrite the length field (bytes 5..9) with maxFramePayload+1.
	frame[5], frame[6], frame[7], frame[8] = 0x01, 0x00, 0x00, 0x41 // 1<<30 + 1 LE
	_, _, err := fleet.ReadFrame(bytes.NewReader(frame), "test")
	wantCorrupt(t, "oversized length", err)
}

// streamFrames encodes vals, in order, on one fresh stream — one
// connection direction — and returns each as a sealed frame of type typ.
func streamFrames(t testing.TB, typ fleet.FrameType, vals ...any) [][]byte {
	t.Helper()
	stream := fleet.NewStream()
	frames := make([][]byte, len(vals))
	for i, v := range vals {
		frame, err := stream.EncodeFrame(typ, v)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = bytes.Clone(frame) // the next EncodeFrame reuses the buffer
	}
	return frames
}

// seedOpts configures seedCheckpoint's engine.
var seedOpts = search.Options{PopSize: 4, Generations: 2, Seed: testSeed}

// seedCheckpoint is a real replica checkpoint: an nsga2 generation zero on
// the suite's problem under seedOpts, so seeds exercise the
// interface-typed engine state.
func seedCheckpoint(t testing.TB) *search.Checkpoint {
	t.Helper()
	eng := new(nsga2.Engine)
	if err := eng.Init(zdt1Prob(t), seedOpts); err != nil {
		t.Fatal(err)
	}
	return eng.Checkpoint()
}

// FuzzFrameDecode pins the codec's total-safety contract: arbitrary bytes,
// read frame by frame through one Stream and its reused read buffer as
// both ends of a connection read them, never panic, never hang, and
// produce only io.EOF, a typed *search.CorruptError, or a clean frame;
// the Request and Reply frames among them then decode, in order, through
// the same stream's decoder — the per-connection state a worker or a
// coordinator keeps — under the same guarantee. Heartbeats are skipped,
// as the coordinator skips them; the first decode error ends the stream,
// as it taints a connection.
func FuzzFrameDecode(f *testing.F) {
	cp := seedCheckpoint(f)
	reqs := streamFrames(f, fleet.FrameRequest,
		&Request{Replica: 1, Epoch: 2, Algo: "nsga2", Spec: "zdt1", State: cp},
		&Request{Replica: 1, Epoch: 3, Attempt: 1, Algo: "nsga2", Spec: "zdt1", State: cp})
	replies := streamFrames(f, fleet.FrameReply,
		&Reply{Replica: 1, Epoch: 2, State: cp},
		&Reply{Replica: 1, Epoch: 3, State: cp, Err: "quarantined"})
	beat := sealFrame(f, fleet.FrameHeartbeat, []byte("heartbeat"))
	f.Add([]byte{})
	f.Add(sealFrame(f, fleet.FrameRequest, []byte("seed")))
	f.Add(bytes.Join(reqs, nil))
	f.Add(bytes.Join([][]byte{replies[0], beat, replies[1]}, nil))
	f.Add(replies[1]) // values only: the types it names were never sent
	f.Add(replies[0][:len(replies[0])-3])
	f.Add(append(bytes.Clone(replies[0]), replies[0]...)) // types sent twice
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		stream := fleet.NewStream()
		for {
			typ, payload, err := stream.ReadFrame(r, "fuzz")
			if err == io.EOF {
				return
			}
			if err != nil {
				var ce *search.CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("non-typed frame error %T: %v", err, err)
				}
				return
			}
			var v any
			switch typ {
			case fleet.FrameRequest:
				v = new(Request)
			case fleet.FrameReply:
				v = new(Reply)
			case fleet.FrameHeartbeat:
				continue
			default:
				return // unknown type is the transport layer's problem
			}
			if derr := stream.Decode("fuzz", payload, v); derr != nil {
				var ce *search.CorruptError
				if !errors.As(derr, &ce) {
					t.Fatalf("non-typed payload error %T: %v", derr, derr)
				}
				return
			}
		}
	})
}
