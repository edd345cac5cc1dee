package main

import (
	"math"
	"testing"
	"time"

	"orwlplace"
)

func TestTailRankNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99}, {5000000, 99.99},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentilePooled(t *testing.T) {
	// Two callers' samples pooled: 1..1000 in some order.
	var a, b samples
	for i := 1000; i >= 1; i-- {
		if i%2 == 0 {
			a.ok(float64(i))
		} else {
			b.ok(float64(i))
		}
	}
	a.merge(&b)
	sorted := sortedCopy(a.us)
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {100, 1000}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if a.attempted != 1000 || a.failed != 0 {
		t.Errorf("pooled counts = %+v", a.opCount)
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

func TestMedianOfSegmentsAndSpread(t *testing.T) {
	rates := []float64{410, 395, 1200, 402, 399} // one segment hit by a stall the other way
	if got := median(rates); got != 402 {
		t.Errorf("median = %g, want 402", got)
	}
	if lo, hi := minMax(rates); lo != 395 || hi != 1200 {
		t.Errorf("minMax = %g, %g", lo, hi)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if median(nil) != 0 {
		t.Error("median of nothing is not 0")
	}
}

// The quartiles must be Python's statistics.quantiles(values, n=4): the
// acceptance driver computes the spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if spreadShare([]float64{5}) != 0 {
		t.Error("one value has a spread")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cycle", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},      // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 130},     // sticks out of the parent
		{ID: 5, Parent: 3, Name: "b1", StartNS: 35, EndNS: 45},     // grandchild: covers b, not the root
		{ID: 6, Parent: 1, Name: "d", StartNS: 35, EndNS: 38},      // inside the union already
		{ID: 7, Name: "cycle", StartNS: 200, EndNS: 300},           // a root without children
		{ID: 8, Parent: 0, Name: "twin", StartNS: 300, EndNS: 400}, // another root, not counted
	}
	self := selfTimes(spans)
	// Root: 100 long, children cover [10,60) and [90,100) = 60.
	if self[1] != 40 {
		t.Errorf("root self time = %d, want 40", self[1])
	}
	if self[3] != 20 {
		t.Errorf("b self time = %d, want 30 - 10 = 20", self[3])
	}
	if self[7] != 100 {
		t.Errorf("childless root self time = %d, want its duration", self[7])
	}
	// (40 + 100) of (100 + 100).
	if got := unattributedShare(spans, "cycle"); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("unattributed share = %g, want 0.7", got)
	}
	if unattributedShare(nil, "cycle") != 0 {
		t.Error("no spans, yet something unattributed")
	}
}

// A push that does not arrive in time fails the cycle: the operation is
// attempted and failed, and contributes no latency sample.
func TestTimedOutPushIsFailedWithoutSample(t *testing.T) {
	silent := make(chan orwlplace.Remap)
	p := &fleetPeer{remaps: silent}
	start := time.Now()
	if _, ok := p.await(2, 20*time.Millisecond); ok {
		t.Fatal("await returned an event from a silent channel")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("await gave up before its limit")
	}

	var run fleetRun
	run.note(true, cycleResult{adopted: true, failed: true, latencyUS: 5e6})
	run.note(false, cycleResult{latencyUS: 900})
	run.note(true, cycleResult{adopted: true, latencyUS: 2000})
	ops := run.cycles()
	if ops.attempted != 3 || ops.failed != 1 {
		t.Fatalf("counts = %+v, want 3 attempted, 1 failed", ops)
	}
	if got := ops.failedShare(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("failed share = %g, want 1/3", got)
	}
	if len(run.rebind.us) != 1 || run.rebind.us[0] != 2000 {
		t.Errorf("rebind samples = %v: the timed-out cycle must not contribute", run.rebind.us)
	}

	// An older event is skipped, the awaited one returned, a closed
	// subscription ends the wait.
	ch := make(chan orwlplace.Remap, 2)
	ch <- orwlplace.Remap{Epoch: 1}
	ch <- orwlplace.Remap{Epoch: 2}
	close(ch)
	p.remaps = ch
	if ev, ok := p.await(2, time.Second); !ok || ev.Epoch != 2 {
		t.Errorf("await = %+v, %v, want epoch 2", ev, ok)
	}
	if _, ok := p.await(3, time.Second); ok {
		t.Error("await succeeded on a closed subscription")
	}
}
