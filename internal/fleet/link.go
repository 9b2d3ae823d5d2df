package fleet

import (
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one decoded incoming frame (or the read error that ended the
// stream).
type Frame struct {
	Type    FrameType
	Payload []byte
	Err     error
}

// Link is a dialed connection plus its reader goroutine: incoming frames
// (and the terminal stream error) are delivered on Frames in order, so a
// caller can select over them alongside lease and heartbeat timers. The
// channel closes when the stream ends. Like the Conn under it, a Link is
// owned by one user at a time.
type Link struct {
	conn   Conn
	addr   string
	frames chan Frame
	last   atomic.Int64 // unix nanos of the last good frame; liveness stat
	drop   sync.Once
	// stream is the connection's gob codec. The link owns it, so it lives
	// and dies with this one connection: a redial builds a new Link, and
	// with it a fresh stream on both ends.
	stream *Stream
}

// NewLink wraps an already-handshaken connection and starts its reader.
// addr labels the stream in errors and stats.
func NewLink(c Conn, addr string) *Link {
	l := &Link{conn: c, addr: addr, frames: make(chan Frame, 4), stream: NewStream()}
	go func() {
		defer close(l.frames)
		for {
			typ, payload, err := ReadFrame(c, addr)
			if err == nil {
				l.last.Store(time.Now().UnixNano())
			}
			l.frames <- Frame{Type: typ, Payload: payload, Err: err}
			if err != nil {
				return
			}
		}
	}()
	return l
}

// Addr names the worker this link reaches.
func (l *Link) Addr() string { return l.addr }

// Frames is the incoming frame stream.
func (l *Link) Frames() <-chan Frame { return l.frames }

// Send encodes v on the link's stream and writes it as one FrameRequest,
// the only frame type a coordinator sends after the handshake. Any error
// taints the link: the stream's type state is then unknown, so the
// caller must kill the link (Session.Fail), never reuse it.
func (l *Link) Send(v any) error {
	payload, err := l.stream.Encode(v)
	if err != nil {
		return err
	}
	// The payload aliases the stream's buffer: it is written here, before
	// the next Send encodes over it.
	return WriteFrame(l.conn, FrameRequest, payload)
}

// Decode reads a FrameReply payload from the link's stream into v, a
// fresh value. Heartbeat payloads are not on the stream and must not be
// passed here. Any error, always a typed *search.CorruptError, taints the
// link like a Send error.
func (l *Link) Decode(payload []byte, v any) error {
	return l.stream.Decode(l.addr, payload, v)
}

// SetDeadline arms (or, with the zero time, clears) read and write
// deadlines on connections that support them — the per-step backstop
// derived from the epoch lease. A no-op elsewhere.
func (l *Link) SetDeadline(t time.Time) {
	if d, ok := l.conn.(Deadliner); ok {
		d.SetDeadline(t)
	}
}

// LastFrame is when the worker last proved liveness on this link (zero
// time if it never has).
func (l *Link) LastFrame() time.Time {
	ns := l.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Kill tears the link down immediately (tainted connection) and unblocks
// the reader. Idempotent.
func (l *Link) Kill() {
	l.drop.Do(func() {
		l.conn.Kill()
		l.drain()
	})
}

// Close shuts the link down gracefully (clean worker exit where the
// transport distinguishes one). Idempotent with Kill.
func (l *Link) Close() {
	l.drop.Do(func() {
		l.conn.Close()
		l.drain()
	})
}

// drain consumes the reader goroutine's remaining frames so it can exit.
func (l *Link) drain() {
	for range l.frames {
	}
}
