// Package fleet is the transport-and-fleet subsystem under the sharded
// scheduler: it generalizes shard's worker runtime from "child processes
// on stdio" to "a pool of workers reachable over any byte stream".
//
// The package owns three layers:
//
//   - the CRC-framed byte protocol, and Stream, the one frame codec per
//     connection: both ends read, write and buffer frames through it, and
//     the coordinator's Link reads on the caller's goroutine, under
//     connection deadlines, with no reader goroutine;
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
// per-connection state is the Stream that Request and Reply payloads
// ride: each end's gob table of the types already sent. It dies with the
// connection, and any codec error taints the connection like a torn
// frame, so a fresh dial always starts both ends on fresh streams.
package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

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

// MaxFramePayload caps a frame's length field. It does not bound what a
// read allocates: readBody grows the buffer only as body bytes arrive.
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

// WriteFrame emits one sealed frame on w, built in a fresh buffer; a
// Stream builds its Request and Reply frames in its own (EncodeFrame).
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	frame := make([]byte, frameHeaderSize+len(payload)+4)
	copy(frame[frameHeaderSize:], payload)
	if err := seal(frame, typ); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// seal fills in the header and the CRC of frame, which holds
// frameHeaderSize bytes of header room, the payload and 4 bytes of CRC
// room.
func seal(frame []byte, typ FrameType) error {
	n := len(frame) - frameHeaderSize - 4
	if n > MaxFramePayload {
		return fmt.Errorf("fleet: frame payload %d bytes exceeds the %d cap", n, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(frame[0:4], frameMagic)
	frame[4] = byte(typ)
	binary.LittleEndian.PutUint32(frame[5:9], uint32(n))
	binary.LittleEndian.PutUint32(frame[frameHeaderSize+n:], crc32.Checksum(frame[4:frameHeaderSize+n], castagnoli))
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadFrame reads one frame from r into a fresh buffer. src names the
// stream in errors. A clean EOF at a frame boundary returns io.EOF; every
// malformed frame — bad magic, oversized length, truncation mid-frame,
// CRC mismatch — is a typed *search.CorruptError; transport failures
// (a passed deadline included) surface as the underlying read error.
func ReadFrame(r io.Reader, src string) (FrameType, []byte, error) {
	var buf []byte
	return readFrame(r, src, &buf)
}

// readFrame is ReadFrame into *buf, which it grows as needed and keeps
// for reuse; the payload aliases it.
func readFrame(r io.Reader, src string, buf *[]byte) (FrameType, []byte, error) {
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
	body, err := readBody(r, (*buf)[:0], int(n)+4) // payload + CRC
	*buf = body
	if err != nil {
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

// readBody appends n bytes from r to buf. n comes from a length field the
// CRC has not vouched for yet, so buf grows only once it is full of bytes
// that arrived, and then by at most its length (or 4 KiB): a frame that
// claims more than its peer sends costs about twice what was sent.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4<<10)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
