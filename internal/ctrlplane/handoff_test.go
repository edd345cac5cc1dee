package ctrlplane

import (
	"math"
	"slices"
	"sync"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// The controller's hand-off source gives every drained window away and
// takes back what the reconciler is done with, so two or three matrices
// rotate between collector and reconciler. These tests hold that
// rotation against a controller that never recycles.

// keepingSource is the hand-off source without Recycle: the reconciler
// behind it clones on adoption and the collector allocates every
// accumulator, as before windows were handed off.
type keepingSource struct{ h *handoffSource }

func (s keepingSource) Name() string                     { return s.h.Name() }
func (s keepingSource) Affinity() (comm.Affinity, error) { return s.h.Affinity() }

// keepingController is NewController with every machine's reconciler
// rebuilt over a keepingSource.
func keepingController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	ctrl, err := NewController(testFleet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range ctrl.loops {
		if lp.rec, err = placement.NewReconciler(lp.svc.Engine(), keepingSource{lp.src}, nil, cfg.Adaptive); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl
}

// frozen is a copy taken between epochs and what it hashed to then.
type frozen struct {
	epoch int
	a     comm.Affinity
	fp    uint64
	total float64
}

func freeze(epoch int, a comm.Affinity) frozen {
	return frozen{epoch: epoch, a: a, fp: comm.Fingerprint(a), total: a.Total()}
}

// TestHandoffMatchesCloningController drives 200 shift (adopted or
// rejected), steady and idle epochs through a recycling controller and a keeping one, fed the same
// reports: every epoch's report must agree (drift to 1e-12, flags,
// assignment), and no BaselineAffinity or Snapshot taken along the way
// may change afterwards — a copy aliasing a recycled slab would. A
// concurrent Snapshot loop makes the hand-off visible to -race.
func TestHandoffMatchesCloningController(t *testing.T) {
	recycling, err := NewController(testFleet(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	keeping := keepingController(t, testConfig())
	ctrls := []*Controller{recycling, keeping}
	var leases [2][2]Lease
	for c, ctrl := range ctrls {
		for p := range leases[c] {
			// Both peers lease the whole task space: their reports merge
			// additively, and a pattern spans every task.
			if leases[c][p], err = ctrl.Register("fig2", []string{"alpha", "beta"}[p], 0, ctrlTasks); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				recycling.Snapshot()
			}
		}
	}()

	// The traffic pattern: a ring, or cliques at stride 2 or 4.
	pattern := func(k int) *comm.Matrix {
		if k == 0 {
			return ringMatrix(ctrlTasks, 1<<20)
		}
		return clusterMatrix(ctrlTasks, 1<<k, 1<<20)
	}
	var copies []frozen
	var adopted, rejected, steadies, idles int
	k := 0
	for epoch := 1; epoch <= 200; epoch++ {
		kind := epoch % 3 // 1: shift, 2: steady, 0: idle
		if kind == 1 {
			k = (k + 1) % 3
		}
		var reps [2]*placement.EpochReport
		for c, ctrl := range ctrls {
			if kind != 0 {
				// One peer reports dense, the other sparse.
				local := pattern(k)
				if err := ctrl.ReportAffinity(leases[c][0].ID, uint64(epoch), local); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.ReportAffinity(leases[c][1].ID, uint64(epoch), comm.SparseFromMatrix(local)); err != nil {
					t.Fatal(err)
				}
			}
			if reps[c], err = ctrl.Epoch("fig2"); err != nil {
				t.Fatal(err)
			}
		}
		got, want := reps[0], reps[1]
		if (got == nil) != (want == nil) || (got == nil) != (kind == 0) {
			t.Fatalf("epoch %d (kind %d): reports %v vs %v", epoch, kind, got, want)
		}
		if got == nil {
			idles++
			continue
		}
		if got.Epoch != want.Epoch || got.WindowBytes != want.WindowBytes || math.Abs(got.Drift-want.Drift) > 1e-12 ||
			got.Recomputed != want.Recomputed || got.Held != want.Held || got.Adopted != want.Adopted ||
			got.GainSeconds != want.GainSeconds || got.CostSeconds != want.CostSeconds ||
			!slices.Equal(got.MovedTasks, want.MovedTasks) ||
			!slices.Equal(got.Assignment.ComputePU, want.Assignment.ComputePU) {
			t.Fatalf("epoch %d: recycling %+v, keeping %+v", epoch, got, want)
		}
		switch {
		case got.Adopted:
			adopted++
		case got.Recomputed:
			rejected++
		default:
			steadies++
		}
		lp := recycling.loops["fig2"]
		copies = append(copies, freeze(epoch, lp.rec.BaselineAffinity()), freeze(epoch, recycling.Snapshot().Machines[0].Base))
	}
	close(stop)
	scraper.Wait()
	if adopted < 40 || rejected < 20 || steadies < 40 || idles < 60 {
		t.Fatalf("the schedule exercised %d adopted, %d rejected, %d steady and %d idle epochs", adopted, rejected, steadies, idles)
	}
	for _, c := range copies {
		if fp, total := comm.Fingerprint(c.a), c.a.Total(); fp != c.fp || total != c.total {
			t.Fatalf("a baseline copy taken after epoch %d changed afterwards (total %g -> %g)", c.epoch, c.total, total)
		}
	}
	want, got := keeping.loops["fig2"].rec.BaselineAffinity(), recycling.loops["fig2"].rec.BaselineAffinity()
	if comm.Fingerprint(got) != comm.Fingerprint(want) {
		t.Fatal("the two controllers ended on different baselines")
	}
}

// TestLiveRestoreRefreshesDenseBaseline: a restore into a running
// controller rewinds the baseline, so the cached drift form must go with
// it — after adopting a shift and being rewound to the pre-shift
// snapshot, a steady epoch on the pre-shift pattern measures drift 0.
func TestLiveRestoreRefreshesDenseBaseline(t *testing.T) {
	ctrl, err := NewController(testFleet(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lease, err := ctrl.Register("fig2", "p", 0, ctrlTasks)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	epoch := func(step string, w comm.Affinity) *placement.EpochReport {
		t.Helper()
		seq++
		if err := ctrl.ReportAffinity(lease.ID, seq, w); err != nil {
			t.Fatal(err)
		}
		rep, err := ctrl.Epoch("fig2")
		if err != nil || rep == nil {
			t.Fatalf("%s: epoch = (%v, %v)", step, rep, err)
		}
		return rep
	}
	steady := func(step string, w comm.Affinity) {
		t.Helper()
		if rep := epoch(step, w); rep.Drift > 1e-12 || rep.Recomputed {
			t.Fatalf("%s: steady epoch drifts %v (recomputed %v)", step, rep.Drift, rep.Recomputed)
		}
	}
	before, after := ringMatrix(ctrlTasks, 1<<20), clusterMatrix(ctrlTasks, 4, 1<<20)
	if rep := epoch("priming", before); !rep.Adopted {
		t.Fatal("priming epoch not adopted")
	}
	steady("primed", before)
	snap, snapSeq := ctrl.Snapshot(), seq
	if rep := epoch("shift", after); !rep.Adopted {
		t.Fatalf("shift not adopted: drift %v gain %v cost %v", rep.Drift, rep.GainSeconds, rep.CostSeconds)
	}
	steady("after adoption", after) // the cached form is now after's
	if err := ctrl.Restore(snap); err != nil {
		t.Fatal(err)
	}
	seq = snapSeq // the restored lease resumes at its snapshotted sequence
	steady("after restore", before)
}

// TestCollectorRecycle: a recycled window is the next accumulator, reset
// — unless its representation is not the one the order calls for.
func TestCollectorRecycle(t *testing.T) {
	c := NewCollector(-1)
	lease, err := c.Register("m", "p", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(lease.ID, 1, delta(4, 0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	first := c.WindowAffinity("m")
	c.Recycle("m", first)
	if err := c.ReportAffinity(lease.ID, 2, delta(4, 2, 3, 7)); err != nil {
		t.Fatal(err)
	}
	second := c.WindowAffinity("m")
	if second != first {
		t.Fatal("the recycled window was not reused as the next accumulator")
	}
	if second.At(0, 1) != 0 || second.At(2, 3) != 7 || second.Total() != 7 {
		t.Fatalf("the reused accumulator was not reset: (0,1)=%g (2,3)=%g total %g", second.At(0, 1), second.At(2, 3), second.Total())
	}
	c.Recycle("m", comm.NewMatrix(4)) // every order accumulates sparse: dropped
	c.Recycle("unknown", comm.NewSparse(4))
	c.Recycle("m", nil)
	c.Recycle("m", (*comm.Sparse)(nil))
	third := c.WindowAffinity("m")
	if s, sparse := third.(*comm.Sparse); !sparse || s == nil || third == second || third.Order() != 4 || third.Total() != 0 {
		t.Fatalf("after a dense spare the order-4 window is %T (reused %v), want a fresh empty *comm.Sparse", third, third == second)
	}
}
