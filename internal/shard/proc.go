package shard

import (
	"fmt"
	"io"
	"time"

	"sacga/internal/fleet"
)

// leaseError reports a worker that missed a liveness deadline: the
// per-epoch lease expired, or heartbeats stopped while a step was in
// flight. The process analogue of *search.WatchdogError — except the
// coordinator's reclamation (kill the connection, respawn or redial)
// always succeeds, so a lease breach never poisons anything.
type leaseError struct {
	replica int
	epoch   int
	kind    string // "lease" or "heartbeat"
	after   time.Duration
}

func (e *leaseError) Error() string {
	return fmt.Sprintf("shard: replica %d epoch %d: worker %s deadline missed after %v", e.replica, e.epoch, e.kind, e.after)
}

// leaseSlack pads the connection-level deadline past the lease timer, so
// the timer fires first and reports the typed leaseError; the deadline is
// the backstop for the one case the timer cannot reach — a Write blocked
// on a wedged worker's full pipe or socket buffer.
const leaseSlack = 2 * time.Second

// roundTrip sends req on the link and waits for its Reply. lease bounds
// the whole exchange (0 = unbounded); hbTimeout bounds the gap between
// worker frames (0 = no heartbeat monitoring). When a lease is set, the
// connection's read/write deadlines are armed from it for the duration of
// the step. On any non-nil error the link is TAINTED — the stream may be
// desynced, the worker wedged or gone — and the caller must fail it on
// its pool session, never reuse it.
func roundTrip(l *fleet.Link, req *Request, lease, hbTimeout time.Duration) (*Reply, error) {
	payload, err := encodePayload(req)
	if err != nil {
		return nil, err
	}
	if lease > 0 {
		l.SetDeadline(time.Now().Add(lease + leaseSlack))
		defer l.SetDeadline(time.Time{})
	}
	if err := l.WriteFrame(fleet.FrameRequest, payload); err != nil {
		return nil, fmt.Errorf("shard: send request: %w", err)
	}
	var leaseC <-chan time.Time
	if lease > 0 {
		leaseT := time.NewTimer(lease)
		defer leaseT.Stop()
		leaseC = leaseT.C
	}
	var hbT *time.Timer
	var hbC <-chan time.Time
	if hbTimeout > 0 {
		hbT = time.NewTimer(hbTimeout)
		defer hbT.Stop()
		hbC = hbT.C
	}
	for {
		select {
		case f, ok := <-l.Frames():
			if !ok {
				return nil, fmt.Errorf("shard: worker stream closed mid-step")
			}
			if f.Err != nil {
				if f.Err == io.EOF {
					return nil, fmt.Errorf("shard: worker exited mid-step (replica %d epoch %d)", req.Replica, req.Epoch)
				}
				return nil, f.Err
			}
			if hbT != nil {
				// Any frame proves liveness; restart the gap timer.
				if !hbT.Stop() {
					select {
					case <-hbT.C:
					default:
					}
				}
				hbT.Reset(hbTimeout)
			}
			switch f.Type {
			case fleet.FrameHeartbeat:
				continue
			case fleet.FrameReply:
				var reply Reply
				if err := decodePayload("shard: worker stream", f.Payload, &reply); err != nil {
					return nil, err
				}
				if reply.Replica != req.Replica || reply.Epoch != req.Epoch {
					return nil, fmt.Errorf("shard: desynced reply: got replica %d epoch %d, want replica %d epoch %d",
						reply.Replica, reply.Epoch, req.Replica, req.Epoch)
				}
				return &reply, nil
			default:
				return nil, fmt.Errorf("shard: unexpected frame type %d from worker", f.Type)
			}
		case <-leaseC:
			return nil, &leaseError{replica: req.Replica, epoch: req.Epoch, kind: "lease", after: lease}
		case <-hbC:
			return nil, &leaseError{replica: req.Replica, epoch: req.Epoch, kind: "heartbeat", after: hbTimeout}
		}
	}
}
