package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The SSE stream protocol: every event's data line is one JSON document.
//
//	event: status   JobView — the snapshot at subscription time, always first
//	event: frame    FrameEvent — one per completed generation
//	event: done     ResultView — the frozen terminal result, always last
//
// A stream that ends without a "done" event means the server drained
// mid-run; the job resumes after restart and the client re-subscribes.
// Frame delivery is best-effort (a slow client misses frames rather than
// stalling the scheduler); status and done are authoritative. A running
// job serves at most maxSubscribers streams at once; the next is refused
// with 429 before any event is written.

// sseWriter encodes server-sent events onto a flushing ResponseWriter.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// newSSEWriter prepares the response for event streaming. ok is false when
// the connection cannot flush (no streaming possible).
func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w: w, f: f}, true
}

// event writes one named event with a JSON payload and flushes it.
func (sw *sseWriter) event(name string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	sw.f.Flush()
	return nil
}

// streamJob serves a job's SSE stream until the job ends, the server
// drains, or the client disconnects.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	// Buffer a burst of generations; publish drops frames past it rather
	// than blocking a worker slot on this client's socket.
	ch, snapshot, err := j.subscribe(64)
	if err != nil {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	defer j.unsubscribe(ch)
	sw, ok := newSSEWriter(w)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	if err := sw.event("status", snapshot); err != nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				if res, terminal := j.Result(); terminal {
					sw.event("done", res)
				} else {
					// Drain released the subscribers mid-run: report the
					// resumable state so the client knows to reconnect.
					sw.event("status", j.View())
				}
				return
			}
			if err := sw.event("frame", ev); err != nil {
				return
			}
		}
	}
}
