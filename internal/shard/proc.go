package shard

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/search"
)

// leaseError reports a worker that missed a liveness deadline: the
// per-epoch lease expired, or heartbeats stopped while a step was in
// flight. The coordinator kills the connection and retries the step on a
// fresh one, so a lease breach costs an attempt, never the replica's
// state.
type leaseError struct {
	replica int
	epoch   int
	kind    string // "lease" or "heartbeat"
	after   time.Duration
}

func (e *leaseError) Error() string {
	return fmt.Sprintf("shard: replica %d epoch %d: worker %s deadline missed after %v", e.replica, e.epoch, e.kind, e.after)
}

// roundTrip sends req on the link and reads frames until its Reply, on the
// caller's goroutine, under one connection deadline at a time. lease
// bounds the whole exchange and hbTimeout the gap between complete worker
// frames; both must be positive (Params.normalize sees to it). The Reply
// is decoded fresh, so it does not alias the link's read buffer. On any
// non-nil error the link is TAINTED — the frames may be desynced, the
// link's gob streams in an unknown state, the worker wedged or gone — and
// the caller must fail it on its pool session, never reuse it.
func roundTrip(l *fleet.Link, req *Request, lease, hbTimeout time.Duration) (*Reply, error) {
	// The lease counts from the Send, and its deadline also bounds a Send
	// blocked on a wedged worker's full pipe or socket buffer.
	leaseEnd := time.Now().Add(lease)
	defer l.SetDeadline(time.Time{})
	if err := l.SetDeadline(leaseEnd); err != nil {
		return nil, fmt.Errorf("shard: arm the lease: %w", err)
	}
	if err := l.Send(req); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, &leaseError{replica: req.Replica, epoch: req.Epoch, kind: "lease", after: lease}
		}
		return nil, fmt.Errorf("shard: send request: %w", err)
	}
	beat := time.Now() // the heartbeat gap counts from the Send, then from each frame
	for {
		// The deadline is the lease end, or the heartbeat gap's end when
		// that comes sooner: either ends the read as a dead worker would,
		// and the drop cause names which one it was.
		deadline, kind, after := leaseEnd, "lease", lease
		if gap := beat.Add(hbTimeout); gap.Before(deadline) {
			deadline, kind, after = gap, "heartbeat", hbTimeout
		}
		// A connection that cannot bound the read fails the step.
		if err := l.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("shard: arm the %s deadline: %w", kind, err)
		}
		typ, payload, err := l.ReadFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil, &leaseError{replica: req.Replica, epoch: req.Epoch, kind: kind, after: after}
			}
			if err == io.EOF {
				return nil, fmt.Errorf("shard: worker exited mid-step (replica %d epoch %d)", req.Replica, req.Epoch)
			}
			return nil, err
		}
		beat = time.Now()
		switch typ {
		case fleet.FrameHeartbeat:
			continue
		case fleet.FrameReply:
			var reply Reply // fresh: gob leaves omitted fields as they are
			if err := l.Decode(payload, &reply); err != nil {
				return nil, err
			}
			if reply.Replica != req.Replica || reply.Epoch != req.Epoch {
				return nil, fmt.Errorf("shard: desynced reply: got replica %d epoch %d, want replica %d epoch %d",
					reply.Replica, reply.Epoch, req.Replica, req.Epoch)
			}
			if reply.Err == "" && reply.State == nil {
				// A worker that stepped cleanly always returns the new
				// state: the frame decoded, but its content is wrong, so
				// the link is as suspect as after a torn frame.
				return nil, &search.CorruptError{Path: l.Addr(),
					Reason: fmt.Sprintf("successful reply for replica %d epoch %d carries no state", req.Replica, req.Epoch)}
			}
			return &reply, nil
		default:
			return nil, fmt.Errorf("shard: unexpected frame type %d from worker", typ)
		}
	}
}
