package orwlnet

import (
	"context"
	"fmt"
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
// previous incarnation — so it retries under the stub's policy.
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
// including the retries the stub's policy issues — is never
// double-counted. The window is encoded from whatever representation it
// arrives in: a sparse one ships in O(nnz).
func (s *RemoteService) ReportObserved(ctx context.Context, leaseID, seq uint64, delta comm.Affinity) error {
	return s.retryCall(ctx, func(ctx context.Context) error {
		buf := getPayloadBuf()
		payload, err := encodeObservedReport(buf, leaseID, seq, delta)
		if err != nil {
			putPayloadBuf(buf)
			return err
		}
		reply, err := s.primary().callPooled(ctx, opObservedReport, payload, true)
		putPayloadBuf(reply)
		return err
	})
}

// watchRedialBackoff is the flat resubscribe pacing used when the stub
// has no retry policy: the historical 250ms cadence.
const watchRedialBackoff = 250 * time.Millisecond

// watchBackoff returns the resubscribe pacing policy: the stub's
// configured retry policy when present, else a flat-backoff stand-in
// at the historical cadence. Unlike call retries, resubscribe attempts
// are unbounded (a watch is expected to outlive daemon restarts), so
// only the delay schedule is taken from the policy — exponential
// growth with jitter caps the reconnect burst rate against a daemon
// that stays down.
func (s *RemoteService) watchBackoff() RetryPolicy {
	if s.retry != nil {
		return *s.retry
	}
	return RetryPolicy{BaseDelay: watchRedialBackoff, MaxDelay: watchRedialBackoff, Multiplier: 1, Jitter: 0}.withDefaults()
}

// WatchRemaps turns a connection into a remap subscription: the
// returned channel yields every mapping the daemon's controller adopts
// for machine ("" = the daemon's default machine), epoch-deduped —
// the subscription ack, a resubscribe's catch-up and the pushed events
// all carry epochs, and an event is delivered at most once, in order.
//
// The subscription survives connection loss: when the watch connection
// dies, the watcher redials the daemon (the stub must have been built
// by DialPlacementService, which remembers the address) and
// resubscribes with the last applied epoch, so a remap adopted during
// the outage is delivered on reconnect. The channel closes when ctx is
// cancelled, or when the connection dies and no redial address is
// known.
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
// is always a full frame, but the pusher may race an adoption's
// unsolicited frame ahead of it on the wire — a delta frame arriving
// here is skipped (the full ack the server already queued makes it
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
			ev, d, err := decodeRemapFrameAny(msg.payload)
			if err != nil {
				c.closeStream(id)
				return 0, nil, nil, err
			}
			if d != nil {
				continue // a pushed delta overtook the ack; wait for the full frame
			}
			if ev.Epoch == 0 {
				ev = nil // nothing adopted yet
			}
			return id, ch, ev, nil
		case <-ctx.Done():
			c.closeStream(id)
			return 0, nil, nil, ctx.Err()
		}
	}
}

// watchLoop forwards pushed remap frames, dropping stale epochs, and
// resubscribes on a new connection when the current one dies. It keeps
// the last delivered full assignment cached (cur) so a delta frame —
// the moved tasks of epoch last+1 — reconstructs the complete
// mapping locally. Any doubt about a delta (an epoch gap from a frame
// this client never saw, a decode error, a structural mismatch with
// the cache) tears the stream down and resubscribes with the last
// applied epoch: the server's ack is then a full-frame resync, so a
// dropped or garbled delta always converges to the same assignment the
// full-frame path would have delivered.
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
			ev, d, err := decodeRemapFrameAny(msg.payload)
			if err != nil {
				// Undecodable push: the stream may be carrying frames this
				// build cannot parse — resubscribe for a clean full frame.
				if !resync() {
					return
				}
				continue
			}
			if d != nil {
				if d.Epoch <= last {
					continue // stale replay: dedup absorbs it
				}
				if d.Epoch != last+1 || cur == nil {
					// A delta for an epoch we cannot build on (the frame in
					// between never arrived, or we hold no full assignment):
					// full-frame resync.
					if !resync() {
						return
					}
					continue
				}
				a, err := applyRemapDelta(cur, d)
				if err != nil {
					if !resync() {
						return
					}
					continue
				}
				cur = a
				last = d.Epoch
				select {
				case out <- *d.remap(a):
				case <-ctx.Done():
				}
				continue
			}
			if ev.Epoch <= last {
				continue // stale: dedup absorbs replays
			}
			last = ev.Epoch
			cur = ev.Assignment
			select {
			case out <- *ev:
			case <-ctx.Done():
			}
		}
	}
}

// resubscribe redials the daemon and reopens the subscription,
// retrying with the stub's backoff policy (exponential with jitter
// when a retry policy is configured) until the context ends. It fails
// fast when the stub has no redial address (built from a raw
// connection rather than DialPlacementService).
func (s *RemoteService) resubscribe(ctx context.Context, machine string, sinceEpoch uint64) (*Client, uint64, <-chan message, *Remap, error) {
	if s.addr == "" {
		return nil, 0, nil, nil, fmt.Errorf("orwlnet: watch connection lost and no redial address known")
	}
	pol := s.watchBackoff()
	for attempt := 1; ; attempt++ {
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
		case <-time.After(pol.delay(attempt)):
		}
	}
}
