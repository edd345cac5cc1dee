package ctrlplane

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"orwlplace/internal/comm"
)

// delta builds a count x count matrix with one cell set.
func delta(count, i, j int, v float64) *comm.Matrix {
	m := comm.NewMatrix(count)
	m.Set(i, j, v)
	return m
}

func TestCollectorMergesAtLeaseOffsets(t *testing.T) {
	c := NewCollector(-1)
	a, err := c.Register("m", "a", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register("m", "b", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Order("m"); got != 8 {
		t.Fatalf("order = %d, want 8", got)
	}
	// Peer a reports local (1,2); peer b reports local (0,3). In the
	// fleet matrix they land at (1,2) and (4,7).
	if err := c.ReportAffinity(a.ID, 1, delta(4, 1, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(b.ID, 1, delta(4, 0, 3, 20)); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(b.ID, 2, delta(4, 0, 3, 5)); err != nil {
		t.Fatal(err)
	}
	w := c.WindowAffinity("m")
	if w == nil || w.Order() != 8 {
		t.Fatalf("window = %v, want order 8", w)
	}
	if got := w.At(1, 2); got != 10 {
		t.Errorf("fleet(1,2) = %g, want 10", got)
	}
	if got := w.At(4, 7); got != 25 {
		t.Errorf("fleet(4,7) = %g, want 25 (two deltas summed)", got)
	}
	if got := w.Total(); got != 35 {
		t.Errorf("total = %g, want 35", got)
	}
	// Window drains: the next call sees only new traffic, at the same
	// global order.
	if w := c.WindowAffinity("m"); w == nil || w.Total() != 0 || w.Order() != 8 {
		t.Fatalf("drained window = %v (total %g), want empty order-8", w, w.Total())
	}
}

func TestCollectorSeqDedup(t *testing.T) {
	c := NewCollector(-1)
	ls, err := c.Register("m", "p", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(ls.ID, 7, delta(2, 0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	// A retransmit of the same window (same seq) and a stale reordered
	// one must both be dropped silently.
	if err := c.ReportAffinity(ls.ID, 7, delta(2, 0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(ls.ID, 6, delta(2, 0, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if got := c.WindowAffinity("m").At(0, 1); got != 3 {
		t.Fatalf("fleet(0,1) = %g, want 3 (duplicates merged once)", got)
	}
	reports, _, _ := c.Counters()
	if reports != 1 {
		t.Fatalf("reports = %d, want 1", reports)
	}
}

func TestCollectorStalenessEviction(t *testing.T) {
	c := NewCollector(time.Minute)
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	live, err := c.Register("m", "live", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := c.Register("m", "dead", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// live keeps reporting; dead goes silent past the window.
	clock = clock.Add(45 * time.Second)
	if err := c.ReportAffinity(live.ID, 1, delta(2, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(45 * time.Second)
	if err := c.ReportAffinity(live.ID, 2, delta(2, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Leases("m")); got != 1 {
		t.Fatalf("live leases = %d, want 1 (dead peer evicted)", got)
	}
	if err := c.ReportAffinity(dead.ID, 3, delta(2, 0, 1, 1)); err == nil {
		t.Fatal("report under an evicted lease succeeded, want refusal")
	}
	_, peers, evicted := c.Counters()
	if peers != 1 || evicted != 1 {
		t.Fatalf("peers=%d evicted=%d, want 1/1", peers, evicted)
	}
	// The evicted peer's task space stays claimed: orders never shrink.
	if got := c.Order("m"); got != 4 {
		t.Fatalf("order = %d, want 4 after eviction", got)
	}
}

func TestCollectorReRegisterReplaces(t *testing.T) {
	c := NewCollector(-1)
	first, err := c.Register("m", "p", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Register("m", "p", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID == second.ID {
		t.Fatal("re-register reused the lease id")
	}
	if err := c.ReportAffinity(first.ID, 1, delta(2, 0, 1, 1)); err == nil {
		t.Fatal("report under a replaced lease succeeded, want refusal")
	}
	if got := len(c.Leases("m")); got != 1 {
		t.Fatalf("leases = %d, want 1", got)
	}
	// The fresh incarnation starts a fresh sequence space.
	if err := c.ReportAffinity(second.ID, 1, delta(4, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorValidation(t *testing.T) {
	c := NewCollector(-1)
	if _, err := c.Register("", "p", 0, 2); err == nil {
		t.Error("empty machine accepted")
	}
	if _, err := c.Register("m", "", 0, 2); err == nil {
		t.Error("empty peer accepted")
	}
	if _, err := c.Register("m", "p", -1, 2); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := c.Register("m", "p", 0, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := c.Register("m", "p", 0, DefaultMaxLeaseTasks+1); err == nil {
		t.Error("oversized range accepted")
	}
	ls, err := c.Register("m", "p", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(ls.ID, 1, delta(3, 0, 1, 1)); err == nil {
		t.Error("order-mismatched window accepted")
	}
	if err := c.ReportAffinity(ls.ID+99, 1, delta(2, 0, 1, 1)); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: err = %v, want ErrUnknownLease", err)
	}
	// A typed nil pointer behind the interface is the same refusal, not
	// a panic on the first method call.
	for _, w := range []comm.Affinity{nil, (*comm.Matrix)(nil), (*comm.Sparse)(nil)} {
		if err := c.ReportAffinity(ls.ID, 1, w); err == nil || err.Error() != "ctrlplane: nil observed window" {
			t.Errorf("nil window (%T): err = %v", w, err)
		}
	}
}

// TestCollectorSparseWindowMatchesDense merges two rounds of reports
// from two 80-task leases into an order-160 machine — dense and sparse
// deltas, overlapping cells, fractional volumes — and holds the window
// (sparse at every order) to a dense accumulation of the same deltas at
// the same offsets: equal cell for cell, and its Total equal by bits.
func TestCollectorSparseWindowMatchesDense(t *testing.T) {
	const tasks = 80
	c := NewCollector(-1)
	want := comm.NewMatrix(2 * tasks)
	var leases [2]Lease
	for p := range leases {
		var err error
		if leases[p], err = c.Register("m", fmt.Sprint("peer", p), p*tasks, tasks); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for round := uint64(1); round <= 2; round++ {
		for p, lease := range leases {
			var d comm.Affinity = comm.NewSparse(tasks)
			if p == 1 {
				d = comm.NewMatrix(tasks)
			}
			for k := 0; k < 300; k++ {
				d.Add(rng.Intn(tasks), rng.Intn(tasks), rng.Float64()*1e6)
			}
			d.ForEach(func(i, j int, v float64) { want.Add(lease.TaskBase+i, lease.TaskBase+j, v) })
			if err := c.ReportAffinity(lease.ID, round, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, sparse := c.WindowAffinity("m").(*comm.Sparse)
	if !sparse || got.Order() != 2*tasks {
		t.Fatalf("window %T of order %d, want a *comm.Sparse of order %d", got, got.Order(), 2*tasks)
	}
	for i := 0; i < 2*tasks; i++ {
		for j := 0; j < 2*tasks; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("cell (%d,%d) = %v, dense accumulation %v", i, j, g, w)
			}
		}
	}
	if g, w := got.Total(), want.Total(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("Total %v, dense accumulation %v", g, w)
	}
}

// TestCollectorReportBaseCheckOrder: a report against the lease's base
// is checked for its lease, then its rate, then its seq — a duplicate is
// dropped undecoded — and only then decoded against the base: the last
// window the collector kept for the lease, of that window's seq.
func TestCollectorReportBaseCheckOrder(t *testing.T) {
	c := NewCollector(-1)
	c.now = func() time.Time { return time.Unix(0, 0) }
	c.SetReportLimit(1, 1)
	ls, err := c.Register("m", "p", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	decoded := 0
	steady := func(base *comm.Sparse, baseSeq uint64, dst *comm.Sparse) (*comm.Sparse, error) {
		decoded++
		if base == nil {
			return nil, fmt.Errorf("no base")
		}
		dst.Reset(base.Order())
		base.ForEach(func(i, j int, v float64) { dst.Append(i, j, v) })
		return dst, nil
	}
	if err := c.ReportBase(ls.ID+1, 1, steady); !errors.Is(err, ErrUnknownLease) || decoded != 0 {
		t.Fatalf("unknown lease: err = %v after %d decodes", err, decoded)
	}
	if err := c.ReportBase(ls.ID, 1, steady); err == nil || err.Error() != "no base" || decoded != 1 {
		t.Fatalf("no base yet: err = %v after %d decodes", err, decoded)
	}
	if err := c.ReportBase(ls.ID, 1, steady); !errors.Is(err, ErrRateLimited) || decoded != 1 {
		t.Fatalf("over the rate: err = %v after %d decodes", err, decoded)
	}
	c.SetReportLimit(0, 0)
	w := comm.NewSparse(4)
	w.Set(1, 2, 5)
	if err := c.ReportDecoded(ls.ID, 3, func(*comm.Sparse) (*comm.Sparse, error) { return w, nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportBase(ls.ID, 3, steady); err != nil || decoded != 1 {
		t.Fatalf("duplicate: err = %v after %d decodes", err, decoded)
	}
	var gotSeq uint64
	if err := c.ReportBase(ls.ID, 4, func(base *comm.Sparse, baseSeq uint64, dst *comm.Sparse) (*comm.Sparse, error) {
		gotSeq = baseSeq
		if base != w {
			t.Error("the base is not the window the collector kept")
		}
		return steady(base, baseSeq, dst)
	}); err != nil || gotSeq != 3 {
		t.Fatalf("against the kept window: err = %v, base seq %d", err, gotSeq)
	}
	if got := c.WindowAffinity("m"); got.At(1, 2) != 10 || got.NNZ() != 1 {
		t.Fatalf("merged %v, want the window twice", got)
	}
	// The window a merge displaced is the next decode target.
	var target *comm.Sparse
	if err := c.ReportDecoded(ls.ID, 5, func(dst *comm.Sparse) (*comm.Sparse, error) {
		target = dst
		return dst, nil
	}); err != nil || target != w {
		t.Fatalf("the displaced base is not the next decode target (err %v)", err)
	}
}
