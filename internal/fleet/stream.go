package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"sacga/internal/search"
)

// Stream is the frame codec of one worker connection, used by both ends:
// the coordinator's Link holds one, and ServeWorker builds one per served
// stream. EncodeFrame gob-encodes each outgoing value straight into one
// reused frame buffer (header room, the value, the CRC); ReadFrame reads
// each incoming frame into one reused buffer that grows only as bytes
// arrive; Decode reads a payload's value off the incoming gob stream.
// With one encoder and one decoder per connection, a gob type descriptor
// crosses the connection once, with the first frame that uses the type.
//
// The codec lives and dies with its connection, so a respawned process or
// a redialed daemon starts both ends on fresh streams. Only Request and
// Reply frames use the stream: the Hello must decode on a peer of another
// protocol version, and the coordinator never decodes heartbeats, so a
// heartbeat that carried a type definition would leave its stream without
// that type.
//
// A frame or payload a Stream returns aliases its buffer until the next
// call of the same method. A Stream is owned by one goroutine at a time,
// like the Conn under it.
type Stream struct {
	out  bytes.Buffer // the outgoing frame
	enc  *gob.Encoder
	in   bytes.Reader
	dec  *gob.Decoder
	rbuf []byte // the incoming frame
}

// NewStream returns the codec for a fresh connection.
func NewStream() *Stream {
	s := new(Stream)
	s.enc = gob.NewEncoder(&s.out)
	// bytes.Reader is an io.ByteReader, so gob reads it directly, without
	// a buffer that could read ahead into the next frame's payload.
	s.dec = gob.NewDecoder(&s.in)
	return s
}

// EncodeFrame appends v to the outgoing gob stream and returns the whole
// sealed frame of type typ that carries it. The frame aliases the
// stream's buffer, which the next EncodeFrame reuses, so write it before
// encoding again. After an error the stream's type state is unknown: the
// connection is tainted and must be killed.
func (s *Stream) EncodeFrame(typ FrameType, v any) ([]byte, error) {
	var room [frameHeaderSize]byte
	s.out.Reset()
	s.out.Write(room[:])
	if err := s.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("fleet: encode %T: %w", v, err)
	}
	s.out.Write(room[:4])
	frame := s.out.Bytes()
	return frame, seal(frame, typ)
}

// ReadFrame reads the next frame from r into the stream's read buffer.
// The payload aliases that buffer until the next ReadFrame. src names the
// stream in errors, which are ReadFrame's: io.EOF at a frame boundary, a
// typed *search.CorruptError for a malformed frame, or the transport's
// read error.
func (s *Stream) ReadFrame(r io.Reader, src string) (FrameType, []byte, error) {
	return readFrame(r, src, &s.rbuf)
}

// Decode reads the next value of the incoming stream from payload, one
// frame's payload, into v, which must be a fresh value (gob leaves the
// fields a message omits untouched). v shares no memory with payload.
// src names the stream in errors.
//
// Every failure is a typed *search.CorruptError and taints the
// connection: a decode error, a gob panic, and bytes left over after the
// value all leave the stream's type state unknown. The frame CRC has
// already vouched for the bytes, but the guard keeps the no-gob-panic
// guarantee absolute (CRC collisions, protocol version skew).
func (s *Stream) Decode(src string, payload []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload decode panicked: %v", r)}
		}
	}()
	s.in.Reset(payload)
	if derr := s.dec.Decode(v); derr != nil {
		return &search.CorruptError{Path: src, Reason: fmt.Sprintf("payload decode: %v", derr)}
	}
	if n := s.in.Len(); n > 0 {
		return &search.CorruptError{Path: src, Reason: fmt.Sprintf("%d bytes left over after the %T payload", n, v)}
	}
	return nil
}
