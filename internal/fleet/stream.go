package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"sacga/internal/search"
)

// Stream is the gob codec of one worker connection: one encoder for the
// payloads this end sends and one decoder for the payloads it receives.
// Each side of a connection keeps one, so a gob type descriptor crosses
// the connection once, with the first frame that uses the type; every
// later frame carries values only.
//
// The codec lives and dies with one connection: the coordinator's is
// owned by the Link, and the worker builds one per served stream. A
// respawned process or a redialed daemon therefore starts both ends on
// fresh streams, and the only per-connection state is gob's table of the
// types already sent. Only Request and Reply frames use the stream: the
// Hello must decode on a peer of another protocol version, and the
// coordinator never decodes heartbeats, so a heartbeat that carried a
// type definition would leave its stream without that type.
//
// A Stream is owned by one goroutine at a time, like the Conn under it.
type Stream struct {
	out bytes.Buffer
	enc *gob.Encoder
	in  bytes.Reader
	dec *gob.Decoder
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

// Encode appends v to the outgoing stream and returns the bytes that
// carry it: one frame's payload. The slice aliases the stream's buffer,
// which the next Encode reuses, so write the payload before encoding
// again. After an error the stream's type state is unknown: the
// connection is tainted and must be killed.
func (s *Stream) Encode(v any) ([]byte, error) {
	s.out.Reset()
	if err := s.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("fleet: encode %T: %w", v, err)
	}
	return s.out.Bytes(), nil
}

// Decode reads the next value of the incoming stream from payload, one
// frame's payload, into v, which must be a fresh value (gob leaves the
// fields a message omits untouched). src names the stream in errors.
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
