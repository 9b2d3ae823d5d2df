package fleet

import (
	"sync"
	"sync/atomic"
	"time"
)

// Link is the coordinator's end of a dialed connection: the Conn, its
// frame codec and a liveness stat, with no reader goroutine. The caller
// reads on its own goroutine under a deadline it arms (SetDeadline), and
// Kill or Close, the only calls another goroutine may make besides
// LastFrame, end a read in flight by closing the connection under it.
type Link struct {
	conn Conn
	addr string
	// stream lives and dies with this one connection: a redial builds a
	// new Link, and with it a fresh stream on both ends.
	stream *Stream
	last   atomic.Int64 // unix nanos of the last good frame; liveness stat
	drop   sync.Once
}

// NewLink wraps an already-handshaken connection. addr labels the stream
// in errors and stats.
func NewLink(c Conn, addr string) *Link {
	return &Link{conn: c, addr: addr, stream: NewStream()}
}

// Addr names the worker this link reaches.
func (l *Link) Addr() string { return l.addr }

// Send encodes v on the link's stream and writes it as one FrameRequest,
// the only frame type a coordinator sends after the handshake. Any error
// taints the link: the stream's type state is then unknown, so the
// caller must kill the link (Session.Fail), never reuse it.
func (l *Link) Send(v any) error {
	frame, err := l.stream.EncodeFrame(FrameRequest, v)
	if err != nil {
		return err
	}
	_, err = l.conn.Write(frame)
	return err
}

// ReadFrame reads the worker's next frame. The payload aliases the link's
// read buffer until the next ReadFrame. A complete frame proves the worker
// live (LastFrame). Any error taints the link like a Send error.
func (l *Link) ReadFrame() (FrameType, []byte, error) {
	typ, payload, err := l.stream.ReadFrame(l.conn, l.addr)
	if err == nil {
		l.last.Store(time.Now().UnixNano())
	}
	return typ, payload, err
}

// Decode reads a FrameReply payload from the link's stream into v, a
// fresh value. Heartbeat payloads are not on the stream and must not be
// passed here. Any error, always a typed *search.CorruptError, taints the
// link like a Send error.
func (l *Link) Decode(payload []byte, v any) error {
	return l.stream.Decode(l.addr, payload, v)
}

// SetDeadline bounds the connection's reads and writes until t (the zero
// time clears it). After an error, fail the step: reads are unbounded.
func (l *Link) SetDeadline(t time.Time) error { return l.conn.SetDeadline(t) }

// LastFrame is when the worker last proved liveness on this link (zero
// time if it never has).
func (l *Link) LastFrame() time.Time {
	ns := l.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Kill tears the link down immediately (tainted connection). Idempotent.
func (l *Link) Kill() { l.drop.Do(l.conn.Kill) }

// Close shuts the link down gracefully (clean worker exit where the
// transport distinguishes one). Idempotent with Kill.
func (l *Link) Close() { l.drop.Do(func() { l.conn.Close() }) }
