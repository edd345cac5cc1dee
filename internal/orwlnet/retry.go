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

// retrySchedule paces how a RemoteService re-attempts idempotent calls
// when the daemon restarts, the network hiccups, or the server
// throttles, and how its remap watch resubscribes: the backoff doubles
// from base up to max, jittered ±20% so a fleet of clients severed by
// one daemon restart does not reconnect in lockstep.
//
// Only idempotent operations retry: Place/Topology/Stats are pure
// requests, observed reports are seq-deduplicated server-side
// (a retransmit is dropped, never double-counted), and a lease
// re-registration under the same (machine, peer, token) key replaces
// the previous incarnation. Location ops (Acquire/Release) are NOT
// retried — replaying them would corrupt the FIFO.
type retrySchedule struct {
	attempts  int           // per call, the first included; resubscribes are unbounded
	base, max time.Duration // the backoff before the second attempt, and its cap
}

// defaultRetry is every stub's schedule: 4 attempts, 50ms doubling to
// a 2s cap.
var defaultRetry = retrySchedule{attempts: 4, base: 50 * time.Millisecond, max: 2 * time.Second}

// delay is the jittered backoff after the attempt'th failure (1-based).
func (r retrySchedule) delay(attempt int) time.Duration {
	d := r.base
	for i := 1; i < attempt && d < r.max; i++ {
		d *= 2
	}
	return time.Duration(float64(min(d, r.max)) * (0.8 + 0.4*rand.Float64()))
}

// retryableError classifies the failures worth re-attempting: the
// connection died (the daemon restarted or the network dropped us), or
// the server refused with its retryable rate limit. Application errors
// — unknown machine, malformed request, lease conflict — are not
// retryable: the same request will fail the same way.
func retryableError(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, errConnLost) || errors.Is(err, ctrlplane.ErrRateLimited)
}

// retryCall runs do on the stub's schedule. A transient failure revives
// dead pool connections — after the last attempt too, so the next call
// finds a live one — and, while attempts remain, backs off and runs do
// again; the caller's context and the stub's Close always win. A
// success runs do once.
func (s *RemoteService) retryCall(ctx context.Context, do func(ctx context.Context) error) error {
	for attempt := 1; ; attempt++ {
		err := do(ctx)
		if err == nil || ctx.Err() != nil || !retryableError(err) {
			return err
		}
		if attempt < s.retry.attempts {
			select {
			case <-time.After(s.retry.delay(attempt)):
			case <-ctx.Done():
				return err
			}
		}
		if !s.revive(ctx) || attempt >= s.retry.attempts {
			return err
		}
	}
}
