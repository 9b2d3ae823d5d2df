package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sacga/internal/ga"
	"sacga/internal/search"
)

// TestFrameEventJSONRoundTrip: the stream payload survives JSON exactly,
// including the boxed hypervolume (present or absent).
func TestFrameEventJSONRoundTrip(t *testing.T) {
	hv := 0.123456789012345678 // more digits than float64 holds: exercises exact round-trip
	for _, ev := range []FrameEvent{
		{Job: "abc", Gen: 7, Evals: 1234, HV: &hv, Pop: 24, Feasible: 20},
		{Job: "abc", Gen: 1, Evals: 24, Pop: 24}, // no HV yet
	} {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if ev.HV == nil && strings.Contains(string(data), "hv") {
			t.Fatalf("nil HV must be omitted, got %s", data)
		}
		var back FrameEvent
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if ev.HV != nil {
			if back.HV == nil || *back.HV != *ev.HV {
				t.Fatalf("HV did not round-trip: %v", back.HV)
			}
			ev.HV, back.HV = nil, nil
		}
		if !reflect.DeepEqual(ev, back) {
			t.Fatalf("round trip: got %+v, want %+v", back, ev)
		}
	}
}

// TestEventFromFrameDoesNotAlias: the observer frame and its population are
// pooled and recycled by the next Step — the event must carry copies, so
// mutating the source afterwards cannot change an event already published.
func TestEventFromFrameDoesNotAlias(t *testing.T) {
	pop := ga.Population{
		{X: []float64{1, 2}, Objectives: []float64{0.5, 0.5}, Violation: 0},
		{X: []float64{3, 4}, Objectives: []float64{0.7, 0.3}, Violation: 2}, // infeasible
	}
	frame := search.Frame{Gen: 3, Pop: pop, Evals: 99}
	ev := eventFromFrame("job1", &frame, 0.25)
	if ev.Gen != 3 || ev.Evals != 99 || ev.Pop != 2 || ev.Feasible != 1 {
		t.Fatalf("event scalars wrong: %+v", ev)
	}
	if ev.HV == nil || *ev.HV != 0.25 {
		t.Fatalf("HV wrong: %v", ev.HV)
	}

	// Recycle the frame the way the driver does between generations.
	frame.Gen, frame.Evals = 4, 123
	pop[0].Violation = 5
	pop = pop[:0]
	if ev.Gen != 3 || ev.Evals != 99 || ev.Pop != 2 || ev.Feasible != 1 || *ev.HV != 0.25 {
		t.Fatalf("event aliased pooled frame state: %+v", ev)
	}
}

// TestSnapshotFrontDoesNotAlias: the wire front is a deep copy of engine
// buffers.
func TestSnapshotFrontDoesNotAlias(t *testing.T) {
	pop := ga.Population{{X: []float64{1, 2}, Objectives: []float64{3, 4}, Violation: 0}}
	front := snapshotFront(pop)
	pop[0].X[0], pop[0].Objectives[0] = -1, -1
	if front[0].X[0] != 1 || front[0].Objectives[0] != 3 {
		t.Fatalf("front aliases engine buffers: %+v", front[0])
	}
}

// TestSSEWriterFormat: the encoder emits well-formed named events.
func TestSSEWriterFormat(t *testing.T) {
	rec := httptest.NewRecorder()
	sw, ok := newSSEWriter(rec)
	if !ok {
		t.Fatal("recorder must support flushing")
	}
	if err := sw.event("status", JobView{ID: "j1", State: StateQueued}); err != nil {
		t.Fatalf("event: %v", err)
	}
	hv := 1.5
	if err := sw.event("frame", FrameEvent{Job: "j1", Gen: 1, HV: &hv}); err != nil {
		t.Fatalf("event: %v", err)
	}
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n")
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %q", len(events), body)
	}
	for i, want := range []string{"status", "frame"} {
		lines := strings.Split(events[i], "\n")
		if len(lines) != 2 || lines[0] != "event: "+want || !strings.HasPrefix(lines[1], "data: {") {
			t.Fatalf("event %d malformed: %q", i, events[i])
		}
		var payload map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[1], "data: ")), &payload); err != nil {
			t.Fatalf("event %d data is not JSON: %v", i, err)
		}
	}
}

// TestStreamEndToEnd drives the HTTP stream of a real job: status first,
// monotonically advancing frames, done last with the terminal result.
func TestStreamEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view, _, err := s.Submit(zdtJob("nsga2", 17, 10))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()

	var (
		sc        = bufio.NewScanner(resp.Body)
		event     string
		sawStatus bool
		lastGen   = -1
		done      *ResultView
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "status":
				if sawStatus || done != nil {
					t.Fatal("status must be the single first event")
				}
				sawStatus = true
			case "frame":
				var ev FrameEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					t.Fatalf("frame JSON: %v", err)
				}
				if !sawStatus || ev.Job != view.ID || ev.Gen <= lastGen {
					t.Fatalf("frame out of order: %+v (lastGen %d)", ev, lastGen)
				}
				lastGen = ev.Gen
			case "done":
				var res ResultView
				if err := json.Unmarshal(data, &res); err != nil {
					t.Fatalf("done JSON: %v", err)
				}
				done = &res
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !sawStatus || done == nil {
		t.Fatalf("stream missing status (%v) or done (%v)", sawStatus, done != nil)
	}
	if done.State != StateDone || len(done.Front) == 0 {
		t.Fatalf("done event: state %s, front %d points", done.State, len(done.Front))
	}
}

// nextEvent reads a stream's next event: its name and data line. ok is
// false once the stream ends.
func nextEvent(sc *bufio.Scanner) (name string, data []byte, ok bool) {
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			return name, []byte(strings.TrimPrefix(line, "data: ")), true
		}
	}
	return "", nil, false
}

// TestStreamSubscriberCap: a running job serves maxSubscribers streams and
// refuses the next with 429 before writing any event. The refusal leaves
// the admitted streams intact: each goes on to receive frames in
// generation order and ends with the job's done event. A stream that
// closes frees its place.
func TestStreamSubscriberCap(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1, Build: testBuild(time.Millisecond)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the streams' cleanups: Close waits for their handlers
	view, _, err := s.Submit(zdtJob("nsga2", 5, 100000))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	url := ts.URL + "/jobs/" + view.ID + "/stream"
	open := func() (*http.Response, *bufio.Scanner) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp, bufio.NewScanner(resp.Body)
	}
	refused := func() bool {
		t.Helper()
		resp, sc := open()
		if resp.StatusCode == http.StatusOK {
			if name, _, ok := nextEvent(sc); !ok || name != "status" {
				t.Fatalf("admitted stream opened with %q, want status", name)
			}
			return false
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "subscribers") {
			t.Fatalf("refused stream: %s %q, want 429 naming the subscribers", resp.Status, body)
		}
		return true
	}

	streams := make([]*bufio.Scanner, maxSubscribers)
	bodies := make([]io.Closer, maxSubscribers)
	for i := range streams {
		resp, sc := open()
		if name, _, ok := nextEvent(sc); resp.StatusCode != http.StatusOK || !ok || name != "status" {
			t.Fatalf("stream %d: %s, first event %q", i, resp.Status, name)
		}
		streams[i], bodies[i] = sc, resp.Body
	}
	if !refused() {
		t.Fatalf("stream %d was admitted past the cap", maxSubscribers+1)
	}

	lastGen := make([]int, maxSubscribers)
	for i, sc := range streams {
		name, data, ok := nextEvent(sc)
		var ev FrameEvent
		if !ok || name != "frame" || json.Unmarshal(data, &ev) != nil || ev.Job != view.ID {
			t.Fatalf("stream %d after the refusal: event %q %s", i, name, data)
		}
		lastGen[i] = ev.Gen
	}

	// The last stream closes; its place opens once the handler sees it.
	bodies[maxSubscribers-1].Close()
	streams = streams[:maxSubscribers-1]
	for deadline := time.Now().Add(10 * time.Second); refused(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a closed stream did not free its place")
		}
	}

	s.Cancel(view.ID)
	for i, sc := range streams {
		for {
			name, data, ok := nextEvent(sc)
			if !ok {
				t.Fatalf("stream %d ended without a done event", i)
			}
			if name == "done" {
				var res ResultView
				if err := json.Unmarshal(data, &res); err != nil || res.State != StateCancelled {
					t.Fatalf("stream %d done event %s, want the cancelled result", i, data)
				}
				break
			}
			var ev FrameEvent
			if name != "frame" || json.Unmarshal(data, &ev) != nil || ev.Gen <= lastGen[i] {
				t.Fatalf("stream %d: event %q %s out of order (last gen %d)", i, name, data, lastGen[i])
			}
			lastGen[i] = ev.Gen
		}
	}
}
