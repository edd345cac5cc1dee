package orwlnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// Client-side face of the fleet control plane: lease registration,
// observed-traffic reporting, and the remap subscription with
// resubscribe-on-reconnect and epoch dedup.

// Remap re-exports the control-plane event type watchers receive.
type Remap = ctrlplane.Remap

// RegisterLease registers this process's (machine, peer, task-range)
// identity with the daemon's control plane and returns the lease id
// subsequent ReportObserved calls name, claiming no ownership token.
// machine "" selects the daemon's default machine server-side.
func (s *RemoteService) RegisterLease(ctx context.Context, machine, peer string, base, count int) (uint64, error) {
	return s.RegisterLeaseToken(ctx, machine, peer, base, count, 0)
}

// RegisterLeaseToken is RegisterLease with a lease ownership token: a
// non-zero token marks the lease as owned, and only a registration
// presenting the same token can displace it. Registration is
// idempotent under one (machine, peer, token) key — re-registering
// after a daemon restart or a retry replaces this client's own
// previous incarnation — so it retries on the stub's schedule.
func (s *RemoteService) RegisterLeaseToken(ctx context.Context, machine, peer string, base, count int, token uint64) (uint64, error) {
	var id uint64
	err := s.retryCall(ctx, func(ctx context.Context) error {
		payload, err := encodeFleetLeaseRequest(nil, machine, peer, base, count, token)
		if err != nil {
			return err
		}
		resp, err := s.primary().callCtx(ctx, opFleetLease, payload)
		if err != nil {
			return err
		}
		id, err = decodeFleetLeaseResponse(resp)
		return err
	})
	return id, err
}

// ReportObserved ships one observed-traffic window (a delta since the
// previous report) under a lease. seq must increase monotonically per
// lease: the daemon drops duplicates, so a retransmitted window —
// including the stub's own retries — is never
// double-counted. The window is encoded from whatever representation it
// arrives in: a sparse one ships in O(nnz).
//
// A window with the nonzero pattern of the lease's last acknowledged one
// ships its values only; a daemon without that base (a restart) answers
// ErrUnknownMatrix and gets the window in full, same seq. The stub keeps
// the base of the lease it last reported under, until the daemon forgets
// that lease.
func (s *RemoteService) ReportObserved(ctx context.Context, leaseID, seq uint64, delta comm.Affinity) error {
	s.baseMu.Lock()
	b := s.base
	s.base = nil // a concurrent report ships in full
	if b == nil {
		b = new(reportBase)
	} else if s.baseLease != leaseID {
		b.seq = 0
	}
	s.baseMu.Unlock()
	var coded bool
	err := s.retryCall(ctx, func(ctx context.Context) error {
		for {
			buf := getPayloadBuf()
			var payload []byte
			payload, coded = encodeBaseReport(buf, leaseID, seq, delta, b)
			if !coded {
				var err error
				if payload, err = encodeObservedReport(buf, leaseID, seq, delta); err != nil {
					putPayloadBuf(buf)
					return err
				}
			}
			reply, err := s.primary().callPooled(ctx, opObservedReport, payload, true)
			putPayloadBuf(reply)
			if !coded || !errors.Is(err, ErrUnknownMatrix) {
				return err
			}
			b.seq = 0 // the daemon holds no such base: resend in full
		}
	})
	if errors.Is(err, ctrlplane.ErrUnknownLease) {
		return err
	}
	switch {
	case err == nil && coded: // same pattern: only the bits change
		b.seq, b.words, b.next = seq, b.next, b.words
	case err == nil:
		b.set(seq, delta)
	}
	s.baseMu.Lock()
	s.baseLease, s.base = leaseID, b
	s.baseMu.Unlock()
	return err
}

// WatchRemaps turns a connection into a remap subscription: the
// returned channel yields every mapping the daemon's controller adopts
// for machine ("" = the daemon's default machine), epoch-deduped —
// the subscription ack, a resubscribe's catch-up and the pushed events
// all carry epochs, and an event is delivered at most once, in order.
//
// The subscription survives connection loss: when the watch connection
// dies, the watcher redials the daemon and resubscribes with the last
// applied epoch, so a remap adopted during the outage is delivered on
// reconnect. The channel closes when ctx is cancelled, when the
// daemon ends the subscription with an error, or when the connection
// dies after the stub is closed.
func (s *RemoteService) WatchRemaps(ctx context.Context, machine string) (<-chan Remap, error) {
	c := s.primary()
	id, ch, ack, err := s.subscribeRemaps(ctx, c, machine, 0)
	if err != nil {
		return nil, err
	}
	out := make(chan Remap, 8)
	var last uint64
	var cur *placement.Assignment
	if ack != nil && ack.Epoch > 0 {
		last = ack.Epoch
		cur = ack.Assignment
		out <- *ack
	}
	go s.watchLoop(ctx, machine, out, c, id, ch, last, cur)
	return out, nil
}

// subscribeRemaps opens the subscription stream and waits for the
// server's ack: the latest adopted remap newer than sinceEpoch, or an
// empty frame (epoch 0) when there is nothing to catch up on. The ack
// is always a complete frame, but the pusher may race an adoption's
// unsolicited frame ahead of it on the wire — a delta frame arriving
// here is skipped (the complete ack the server already queued makes it
// redundant: both describe epochs the ack's snapshot covers).
func (s *RemoteService) subscribeRemaps(ctx context.Context, c *Client, machine string, sinceEpoch uint64) (uint64, <-chan message, *Remap, error) {
	payload, err := encodeWatchRequest(nil, machine, sinceEpoch)
	if err != nil {
		return 0, nil, nil, err
	}
	id, ch, err := c.openStream(ctx, opWatchRemaps, payload)
	if err != nil {
		return 0, nil, nil, err
	}
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return 0, nil, nil, fmt.Errorf("%w before watch ack", errConnLost)
			}
			if msg.op != statusOK {
				c.closeStream(id)
				return 0, nil, nil, responseError(msg)
			}
			f, err := decodeRemapFrame(msg.payload)
			switch {
			case err != nil:
				c.closeStream(id)
				return 0, nil, nil, err
			case f.Delta:
				continue // a pushed delta overtook the ack; wait for the complete frame
			case f.Epoch == 0:
				return id, ch, nil, nil // nothing adopted yet
			}
			return id, ch, &f.Remap, nil
		case <-ctx.Done():
			c.closeStream(id)
			return 0, nil, nil, ctx.Err()
		}
	}
}

// watchLoop forwards pushed remap frames, dropping stale epochs, and
// resubscribes on a new connection when the current one dies. It keeps
// the last delivered assignment cached (cur) so a delta frame — the
// moved tasks of epoch last+1 — folds into the complete mapping
// locally. Any doubt about a frame (a decode error, a delta onto an
// epoch this client never saw, a structural mismatch with the cache)
// tears the stream down and resubscribes with the last applied epoch:
// the server's ack is then a complete frame, so a dropped or garbled
// delta always converges to the same assignment the complete frame
// would have delivered.
func (s *RemoteService) watchLoop(ctx context.Context, machine string, out chan<- Remap, c *Client, id uint64, ch <-chan message, last uint64, cur *placement.Assignment) {
	defer close(out)
	redialed := false
	// resync abandons the current stream and resubscribes with the last
	// applied epoch — shared by connection loss, gap recovery and decode
	// doubt. It reports whether the loop can continue.
	resync := func() bool {
		c.closeStream(id)
		if redialed {
			c.Close()
		}
		nc, nid, nch, ack, err := s.resubscribe(ctx, machine, last)
		if err != nil {
			return false
		}
		c, id, ch, redialed = nc, nid, nch, true
		if ack != nil && ack.Epoch > last {
			last = ack.Epoch
			cur = ack.Assignment
			select {
			case out <- *ack:
			case <-ctx.Done():
			}
		}
		return true
	}
	for {
		select {
		case <-ctx.Done():
			c.closeStream(id)
			if redialed {
				c.Close()
			}
			return
		case msg, ok := <-ch:
			if !ok {
				// Connection lost. Resubscribe with the last applied epoch:
				// the ack then delivers anything adopted during the outage.
				if !resync() {
					return
				}
				continue
			}
			if msg.op != statusOK {
				// A pushed error ends the subscription (the server shut its
				// control plane down); treat like connection loss without
				// retry — the daemon is telling us to stop, not vanishing.
				c.closeStream(id)
				if redialed {
					c.Close()
				}
				return
			}
			f, err := decodeRemapFrame(msg.payload)
			if err == nil && f.Epoch <= last {
				continue // stale: dedup absorbs replays
			}
			var ev *Remap
			if err == nil {
				ev, err = f.apply(cur, last)
			}
			if err != nil {
				// A push this build cannot parse, or a delta it cannot
				// fold (the frame in between never arrived, or it does
				// not fit the cache): resubscribe for a complete frame.
				if !resync() {
					return
				}
				continue
			}
			last, cur = ev.Epoch, ev.Assignment
			select {
			case out <- *ev:
			case <-ctx.Done():
			}
		}
	}
}

// resubscribe redials the daemon and reopens the subscription, backing
// off on the stub's retry schedule until the context ends. Unlike call
// retries its attempts are unbounded (a watch is expected to outlive
// daemon restarts); the capped, jittered delay bounds the reconnect
// rate against a daemon that stays down. A closed stub does not redial.
func (s *RemoteService) resubscribe(ctx context.Context, machine string, sinceEpoch uint64) (*Client, uint64, <-chan message, *Remap, error) {
	for attempt := 1; ; attempt++ {
		if s.closed.Load() {
			return nil, 0, nil, nil, net.ErrClosed
		}
		c, err := dialContext(ctx, s.addr, s.dialOpts...)
		if err == nil {
			id, ch, ack, serr := s.subscribeRemaps(ctx, c, machine, sinceEpoch)
			if serr == nil {
				return c, id, ch, ack, nil
			}
			c.Close()
			err = serr
		}
		select {
		case <-ctx.Done():
			return nil, 0, nil, nil, ctx.Err()
		case <-time.After(s.retry.delay(attempt)):
		}
	}
}
