package orwlnet

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"time"

	"orwlplace/internal/ctrlplane"
)

// RetryPolicy is the client-side resilience policy: how a
// RemoteService built with WithRetryPolicy re-attempts idempotent
// calls when the daemon restarts, the network hiccups, or the server
// throttles. Exponential backoff with jitter paces the attempts, and
// an optional per-attempt deadline budget keeps one hung attempt from
// eating the caller's whole context.
//
// Only idempotent operations retry: Place/Topology/Stats are pure
// requests, observed reports are seq-deduplicated server-side
// (a retransmit is dropped, never double-counted), and a lease
// re-registration under the same (machine, peer, token) key replaces
// the previous incarnation. Location ops (Acquire/Release) are NOT
// retried — replaying them would corrupt the FIFO.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, the first included
	// (default 4; 1 disables retries while keeping the attempt budget).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default
	// 50ms); each later attempt multiplies it by Multiplier up to
	// MaxDelay (default 2s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the random fraction applied to each delay, in [0, 1]
	// (default 0.2: +-20%), so a fleet of clients severed by one daemon
	// restart does not reconnect in lockstep.
	Jitter float64
	// AttemptBudget, when positive, deadlines each attempt
	// individually; an attempt that exceeds it is abandoned and
	// retried while the caller's own context still has time.
	AttemptBudget time.Duration
}

// DefaultRetryPolicy returns the policy WithRetryPolicy() applies when
// given a zero value: 4 attempts, 50ms..2s exponential backoff with
// 20% jitter, no per-attempt budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2, Jitter: 0.2}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = d.Jitter
	}
	return p
}

// delay computes the backoff after the attempt'th failure (1-based),
// jittered.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rand.Float64()-1)
	}
	return time.Duration(d)
}

// retryableError classifies the failures worth re-attempting: the
// connection died (the daemon restarted or the network dropped us),
// the dial failed (the daemon is not back yet), or the server refused
// with its retryable rate limit. Application errors — unknown machine,
// malformed request, lease conflict — are not retryable: the same
// request will fail the same way.
func retryableError(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, errConnLost) || errors.Is(err, errDial) || errors.Is(err, ctrlplane.ErrRateLimited)
}

// retryCall runs do under the stub's retry policy: each attempt gets a
// fresh per-attempt deadline (when budgeted), failures classified as
// transient back off and re-attempt after reviving dead pool
// connections, and the caller's context always wins. With no policy
// configured, do runs exactly once — the pre-PR 8 behaviour.
func (s *RemoteService) retryCall(ctx context.Context, do func(ctx context.Context) error) error {
	if s.retry == nil {
		return do(ctx)
	}
	pol := *s.retry
	var err error
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if pol.AttemptBudget > 0 {
			actx, cancel = context.WithTimeout(ctx, pol.AttemptBudget)
		}
		err = do(actx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's own deadline or cancellation: surface it, the
			// budget is spent.
			return err
		}
		// An attempt that blew only its per-attempt budget reads as
		// context.DeadlineExceeded with the parent still live: transient.
		if attempt >= pol.MaxAttempts || !(retryableError(err) || errors.Is(err, context.DeadlineExceeded)) {
			return err
		}
		select {
		case <-time.After(pol.delay(attempt)):
		case <-ctx.Done():
			return err
		}
		s.revive(ctx)
	}
}
