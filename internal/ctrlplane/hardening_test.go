package ctrlplane

import (
	"errors"
	"strings"
	"testing"
	"time"

	"orwlplace/internal/comm"
)

// TestLeaseOwnershipToken: a lease registered with a token can only be
// displaced by the same token; legacy (token 0) leases stay
// displaceable.
func TestLeaseOwnershipToken(t *testing.T) {
	c := NewCollector(-1)
	owned, err := c.RegisterToken("m", "alice", 0, 4, 0xa11ce)
	if err != nil {
		t.Fatal(err)
	}

	// A stranger without the token cannot displace it...
	if _, err := c.RegisterToken("m", "alice", 0, 4, 0); err == nil || !strings.Contains(err.Error(), "lease conflict") {
		t.Fatalf("tokenless displacement: err = %v, want lease conflict", err)
	}
	// ...nor with a wrong token...
	if _, err := c.RegisterToken("m", "alice", 0, 4, 0xbad); err == nil || !strings.Contains(err.Error(), "lease conflict") {
		t.Fatalf("wrong-token displacement: err = %v, want lease conflict", err)
	}
	// ...and the original lease still works.
	if err := c.ReportAffinity(owned.ID, 1, comm.NewMatrix(4)); err != nil {
		t.Fatalf("owned lease broken by failed displacements: %v", err)
	}
	if _, conflicts := c.Abuse(); conflicts != 2 {
		t.Fatalf("conflicts = %d, want 2", conflicts)
	}

	// The owner reconnecting with its token replaces its own lease.
	renewed, err := c.RegisterToken("m", "alice", 0, 4, 0xa11ce)
	if err != nil {
		t.Fatalf("owner re-registration: %v", err)
	}
	if renewed.ID == owned.ID {
		t.Fatal("re-registration did not mint a fresh lease")
	}
	if err := c.ReportAffinity(owned.ID, 2, comm.NewMatrix(4)); err == nil {
		t.Fatal("displaced lease still accepts reports")
	}

	// A different peer name is a different lease: no conflict.
	if _, err := c.RegisterToken("m", "bob", 0, 4, 0xb0b); err != nil {
		t.Fatalf("unrelated peer rejected: %v", err)
	}

	// Legacy tokenless leases keep the historical displacement semantics.
	if _, err := c.Register("m", "carol", 4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterToken("m", "carol", 4, 4, 0xca401); err != nil {
		t.Fatalf("tokenless lease not displaceable: %v", err)
	}
}

// TestReportRateLimit: a lease exceeding the configured report rate is
// throttled with a retryable error while other leases keep reporting,
// the throttled window is retransmittable, and the bucket refills with
// time.
func TestReportRateLimit(t *testing.T) {
	c := NewCollector(-1)
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	c.SetReportLimit(1, 3) // 1 report/sec, burst of 3

	spammer, err := c.Register("m", "spammer", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	polite, err := c.Register("m", "polite", 4, 4)
	if err != nil {
		t.Fatal(err)
	}

	window := func() *comm.Matrix {
		m := comm.NewMatrix(4)
		m.AddSym(0, 1, 100)
		return m
	}

	// The burst allows 3 back-to-back reports; the 4th is throttled.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := c.ReportAffinity(spammer.ID, seq, window()); err != nil {
			t.Fatalf("burst report %d: %v", seq, err)
		}
	}
	err = c.ReportAffinity(spammer.ID, 4, window())
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("4th report: err = %v, want rate limit", err)
	}
	if throttled, _ := c.Abuse(); throttled != 1 {
		t.Fatalf("throttled = %d, want 1", throttled)
	}

	// Another lease is unaffected: the bucket is per lease.
	if err := c.ReportAffinity(polite.ID, 1, window()); err != nil {
		t.Fatalf("polite peer throttled by the spammer: %v", err)
	}

	// After a second the bucket has one token again — and the throttled
	// sequence number was NOT consumed, so the retransmit still merges.
	clock = clock.Add(time.Second)
	if err := c.ReportAffinity(spammer.ID, 4, window()); err != nil {
		t.Fatalf("retransmit after refill: %v", err)
	}
	w := c.WindowAffinity("m")
	if w == nil || w.At(0, 1) != 4*100 {
		t.Fatalf("merged window lost the throttled retransmit: %+v", w)
	}

	// Throttling does not mark the peer dead: lastReport advanced, so a
	// hammering-but-throttled peer is not evicted as stale.
	reports, peers, evicted := c.Counters()
	if reports != 5 || peers != 2 || evicted != 0 {
		t.Fatalf("counters = (%d, %d, %d), want (5, 2, 0)", reports, peers, evicted)
	}
}
