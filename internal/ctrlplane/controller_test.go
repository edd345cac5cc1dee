package ctrlplane

import (
	"slices"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

const ctrlTasks = 16

// testFleet builds a one-machine fleet on the paper's Fig. 2 testbed.
func testFleet(t *testing.T) *placement.MultiService {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	return fleet
}

// testConfig mirrors the adaptive golden-shift tuning: a
// communication-dominated workload model, so the ring→clusters shift
// reliably clears the gain-vs-migration-cost bar.
func testConfig() Config {
	threads := make([]perfsim.Thread, ctrlTasks)
	for i := range threads {
		threads[i] = perfsim.Thread{ComputeCycles: 1e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 14}
	}
	return Config{
		Adaptive: placement.AdaptiveConfig{
			Horizon:  50,
			Workload: &perfsim.Workload{Name: "ctrl-test", Threads: threads, Iterations: 1},
		},
		StaleAfter: -1,
	}
}

// ringMatrix / clusterMatrix are the golden shift's two phases.
func ringMatrix(n int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i+1 < n; i++ {
		m.AddSym(i, i+1, vol)
	}
	return m
}

func clusterMatrix(n, k int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(n)
	for base := 0; base < k; base++ {
		var members []int
		for i := base; i < n; i += k {
			members = append(members, i)
		}
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				m.AddSym(members[x], members[y], vol)
			}
		}
	}
	return m
}

func TestControllerPrimesAndAdopts(t *testing.T) {
	ctrl, err := NewController(testFleet(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lease, err := ctrl.Register("", "peer", 0, ctrlTasks)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Machine != "fig2" {
		t.Fatalf("empty machine resolved to %q, want fig2", lease.Machine)
	}

	// Idle machine: no window, no epoch.
	rep, err := ctrl.Epoch("fig2")
	if err != nil || rep != nil {
		t.Fatalf("idle epoch = (%v, %v), want (nil, nil)", rep, err)
	}

	// Subscribe before any adoption: no catch-up.
	subID, events, catchUp, err := ctrl.Subscribe("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Unsubscribe(subID)
	if catchUp != nil {
		t.Fatalf("catch-up before first adoption = %+v, want nil", catchUp)
	}

	// First traffic primes the machine: initial mapping, epoch 1.
	ring := ringMatrix(ctrlTasks, 1<<20)
	if err := ctrl.ReportAffinity(lease.ID, 1, ring); err != nil {
		t.Fatal(err)
	}
	rep, err = ctrl.Epoch("")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Adopted || rep.Assignment == nil {
		t.Fatalf("priming epoch = %+v, want adopted with assignment", rep)
	}
	ev := <-events
	if ev.Epoch != 1 || ev.Machine != "fig2" || ev.Assignment == nil {
		t.Fatalf("first pushed remap = %+v, want epoch 1 on fig2", ev)
	}
	if len(ev.Assignment.ComputePU) != ctrlTasks {
		t.Fatalf("remap covers %d tasks, want %d", len(ev.Assignment.ComputePU), ctrlTasks)
	}

	// Same pattern again: drift-free, nothing adopted.
	if err := ctrl.ReportAffinity(lease.ID, 2, ring); err != nil {
		t.Fatal(err)
	}
	rep, err = ctrl.Epoch("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Adopted {
		t.Fatalf("drift-free epoch = %+v, want no adoption", rep)
	}

	// The shift: clustered pattern the ring mapping is wrong for.
	if err := ctrl.ReportAffinity(lease.ID, 3, clusterMatrix(ctrlTasks, 4, 1<<20)); err != nil {
		t.Fatal(err)
	}
	rep, err = ctrl.Epoch("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Adopted {
		t.Fatalf("shift epoch = %+v, want adoption", rep)
	}
	ev = <-events
	if ev.Epoch != 2 || ev.Drift == 0 {
		t.Fatalf("shift remap = epoch %d drift %.3f, want epoch 2 with drift", ev.Epoch, ev.Drift)
	}

	// A late subscriber catches up atomically with the latest epoch —
	// and a since-epoch at the latest gets nothing.
	id2, _, cu, err := ctrl.Subscribe("fig2", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Unsubscribe(id2)
	if cu == nil || cu.Epoch != 2 {
		t.Fatalf("late catch-up = %+v, want epoch 2", cu)
	}
	id3, _, cu3, err := ctrl.Subscribe("fig2", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Unsubscribe(id3)
	if cu3 != nil {
		t.Fatalf("up-to-date catch-up = %+v, want nil", cu3)
	}

	st := ctrl.Stats()
	if st.ReportsReceived != 3 || st.PeersTracked != 1 || st.RemapsPushed < 2 || st.Watchers != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if got := ctrl.Latest(""); got == nil || got.Epoch != 2 {
		t.Fatalf("latest = %+v, want epoch 2", got)
	}
}

func TestControllerUnsubscribeCloses(t *testing.T) {
	ctrl, err := NewController(testFleet(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, events, _, err := ctrl.Subscribe("fig2", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Unsubscribe(id)
	if _, ok := <-events; ok {
		t.Fatal("event channel still open after Unsubscribe")
	}
	ctrl.Unsubscribe(id) // idempotent
	if _, _, _, err := ctrl.Subscribe("nope", 0); err == nil {
		t.Fatal("subscribe to unknown machine succeeded")
	}
}

// TestReconcilerRePrimesWhenLeaseJoinsLate: a lease registered after the
// machine was primed grows its task space, so the next merged window is
// wider than the mapping in force. That epoch must map the grown window
// afresh — adopted, pushed in full (MovedTasks nil), the same epoch on
// every subscriber — instead of modeling the narrower assignment against
// it, which failed every epoch from then on.
func TestReconcilerRePrimesWhenLeaseJoinsLate(t *testing.T) {
	const half = ctrlTasks / 2
	ctrl, err := NewController(testFleet(t), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var subs [2]<-chan Remap
	for i := range subs {
		id, ch, _, err := ctrl.Subscribe("fig2", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Unsubscribe(id)
		subs[i] = ch
	}
	alpha, err := ctrl.Register("fig2", "alpha", 0, half)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReportAffinity(alpha.ID, 1, ringMatrix(half, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if rep, err := ctrl.Epoch("fig2"); err != nil || rep == nil || !rep.Adopted {
		t.Fatalf("priming epoch = %+v, %v", rep, err)
	}

	beta, err := ctrl.Register("fig2", "beta", half, half)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 3; seq++ {
		if err := ctrl.ReportAffinity(alpha.ID, seq, ringMatrix(half, 1<<20)); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.ReportAffinity(beta.ID, seq-1, ringMatrix(half, 1<<20)); err != nil {
			t.Fatal(err)
		}
		rep, err := ctrl.Epoch("fig2")
		if err != nil {
			t.Fatalf("epoch after the late lease (seq %d): %v", seq, err)
		}
		if first := seq == 2; rep == nil || rep.Adopted != first || len(rep.Assignment.ComputePU) != ctrlTasks {
			t.Fatalf("epoch after the late lease (seq %d) = %+v, want adopted %v over %d tasks", seq, rep, first, ctrlTasks)
		}
	}

	// Publishing is synchronous: each subscriber's newest buffered event
	// is the last adoption.
	var got [2]Remap
	for i, ch := range subs {
		for len(ch) > 0 {
			got[i] = <-ch
		}
		if got[i].Epoch != 2 || got[i].MovedTasks != nil || got[i].Assignment == nil || len(got[i].Assignment.ComputePU) != ctrlTasks {
			t.Fatalf("subscriber %d's last remap = %+v, want epoch 2, a full %d-task push", i, got[i], ctrlTasks)
		}
	}
	if !slices.Equal(got[0].Assignment.ComputePU, got[1].Assignment.ComputePU) {
		t.Fatalf("subscribers diverged at epoch 2: %v vs %v", got[0].Assignment.ComputePU, got[1].Assignment.ComputePU)
	}
}
