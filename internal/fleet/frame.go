// Package fleet is the transport-and-fleet subsystem under the sharded
// scheduler: it generalizes shard's worker runtime from "child processes
// on stdio" to "a pool of workers reachable over any byte stream".
//
// The package owns three layers:
//
//   - the CRC-framed byte protocol (WriteFrame/ReadFrame) that every
//     worker stream speaks, moved here from internal/shard so both sides
//     of any transport share one codec;
//   - Transport — how a worker is reached. ProcTransport spawns a child
//     process and frames its stdio (the original shard runtime, unchanged
//     behavior); TCPTransport dials a long-lived worker daemon
//     (cmd/sacgaw). Every Dial performs the protocol-version +
//     build-fingerprint + problem handshake before the connection is
//     handed out, so mismatched binaries fail with a typed *VersionError
//     at dial time, never a mid-run gob decode error;
//   - Pool — a registry of workers with exclusive checkout (Acquire /
//     Release), liveness-informed least-loaded assignment, redial backoff
//     after failures, and health stats for serving on an HTTP endpoint.
//     A pool can be owned by one sharded run or shared across every
//     tenant of a job server: sessions are the bounded worker budget.
//
// The fault model is inherited from shard, not defined here: workers are
// stateless between requests, so a connection that dies, wedges or
// corrupts is simply tainted (killed, never reused) and the same request
// replays against a fresh dial — bit-identical, which is what keeps every
// transport behind this seam interchangeable. The one piece of
// per-connection state is the gob codec (Stream) that Request and Reply
// payloads ride: each end's table of the types already sent. It dies with
// the connection, and any codec error taints the connection like a torn
// frame, so a fresh dial always starts both ends on fresh streams.
package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"sacga/internal/search"
)

// Frame layout — every message on a worker stream is one frame:
//
//	[magic: uint32 LE] [type: uint8] [payload length: uint32 LE]
//	[payload bytes]
//	[CRC32-C over type+length+payload: uint32 LE]
//
// The CRC covers the type and length bytes as well as the payload, so ANY
// bit flip inside a frame (fuzz-pinned) is a typed *search.CorruptError —
// there is no unprotected byte whose corruption could silently change the
// protocol's behavior. The magic leads every frame so a desynced stream
// fails loudly instead of mis-framing.

// frameMagic identifies a shard protocol frame ("sfm1").
const frameMagic = 0x73666d31

// frameHeaderSize is magic(4) + type(1) + length(4).
const frameHeaderSize = 9

// MaxFramePayload bounds a frame so a corrupted length field cannot make
// the reader allocate unbounded memory before the CRC check.
const MaxFramePayload = 1 << 30

// FrameType tags what a frame's payload decodes to.
type FrameType uint8

const (
	// FrameRequest carries one shard.Request (coordinator → worker) on the
	// connection's coordinator-to-worker gob stream (Stream): the first
	// request also carries the type descriptors, later ones values only.
	FrameRequest FrameType = 1
	// FrameReply carries one shard.Reply (worker → coordinator) on the
	// connection's worker-to-coordinator gob stream.
	FrameReply FrameType = 2
	// FrameHeartbeat carries a self-contained gob shard.Heartbeat (worker
	// → coordinator, periodically while a step is in flight). It is off
	// the stream: the coordinator never decodes it.
	FrameHeartbeat FrameType = 3
	// FrameHello carries a self-contained gob Hello — the first frame in
	// each direction on a fresh connection, before any request — so a peer
	// of another protocol version can still decode it.
	FrameHello FrameType = 4
)

// WriteFrame emits one sealed frame on w.
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("fleet: frame payload %d bytes exceeds the %d cap", len(payload), MaxFramePayload)
	}
	buf := make([]byte, frameHeaderSize+len(payload)+4)
	binary.LittleEndian.PutUint32(buf[0:4], frameMagic)
	buf[4] = byte(typ)
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(payload)))
	copy(buf[frameHeaderSize:], payload)
	crc := crc32.Checksum(buf[4:frameHeaderSize+len(payload)], castagnoli)
	binary.LittleEndian.PutUint32(buf[frameHeaderSize+len(payload):], crc)
	_, err := w.Write(buf)
	return err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadFrame reads one frame from r. src names the stream in errors. A
// clean EOF at a frame boundary returns io.EOF; every malformed frame —
// bad magic, oversized length, truncation mid-frame, CRC mismatch — is a
// typed *search.CorruptError; transport failures surface as the underlying
// read error.
func ReadFrame(r io.Reader, src string) (FrameType, []byte, error) {
	var header [frameHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean boundary: the peer closed between frames
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, &search.CorruptError{Path: src, Reason: "truncated frame header"}
		}
		return 0, nil, err
	}
	if got := binary.LittleEndian.Uint32(header[0:4]); got != frameMagic {
		return 0, nil, &search.CorruptError{Path: src, Reason: fmt.Sprintf("bad frame magic %08x", got)}
	}
	typ := FrameType(header[4])
	n := binary.LittleEndian.Uint32(header[5:9])
	if n > MaxFramePayload {
		return 0, nil, &search.CorruptError{Path: src, Reason: fmt.Sprintf("frame length %d exceeds the %d cap", n, MaxFramePayload)}
	}
	body := make([]byte, int(n)+4) // payload + CRC
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, &search.CorruptError{Path: src, Reason: "truncated frame body"}
		}
		return 0, nil, err
	}
	payload := body[:n]
	want := binary.LittleEndian.Uint32(body[n:])
	got := crc32.Checksum(header[4:], castagnoli)
	got = crc32.Update(got, castagnoli, payload)
	if got != want {
		return 0, nil, &search.CorruptError{Path: src, Reason: fmt.Sprintf("frame CRC mismatch: computed %08x, frame records %08x", got, want)}
	}
	return typ, payload, nil
}
