package placement

import (
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// TestAdaptiveHysteresisOscillation replays a flapping trace: the
// pattern alternates ring/clusters every epoch, so each drift alarm is
// one epoch old when the pattern flips back. With AdoptAfter=2 the
// over-threshold streak never matures — the reconciler holds (no
// recompute, no remap) instead of chasing the oscillation, which is
// the failure mode hysteresis exists to prevent. When the shift
// finally persists, the second consecutive alarm adopts; the cooldown
// then holds the next alarm even though its streak is long enough.
func TestAdaptiveHysteresisOscillation(t *testing.T) {
	const (
		n   = 16
		vol = 1 << 20
	)
	ring := ringMatrix(n, vol)
	clus := strideClusters(n, 4, vol)

	// Epochs 1-4 oscillate, 5-6 hold the shifted pattern, 7-9 shift
	// back (into the cooldown the adoption at 6 started).
	src := &phaseSource{affs: []comm.Affinity{
		clus, ring, clus, ring, // flapping
		clus, clus, // persistent shift
		ring, ring, ring, // shift back, lands in cooldown
	}}
	eng, err := NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewReconciler(eng, src, nil, AdaptiveConfig{
		AdoptAfter:     2,
		CooldownEpochs: 2,
		Horizon:        50,
		Workload:       adaptiveWorkload(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", ring)); err != nil {
		t.Fatal(err)
	}

	step := func(epoch int) *EpochReport {
		t.Helper()
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		return rep
	}

	// Flapping phase: cluster epochs alarm but are held (streak 1 < 2);
	// ring epochs are drift-free and reset the streak.
	for epoch := 1; epoch <= 4; epoch++ {
		rep := step(epoch)
		if rep.Recomputed || rep.Adopted {
			t.Fatalf("epoch %d: oscillation triggered a recompute (drift %.3f)", epoch, rep.Drift)
		}
		shifted := epoch%2 == 1
		if shifted && !rep.Held {
			t.Fatalf("epoch %d: drift alarm not held (drift %.3f)", epoch, rep.Drift)
		}
		if !shifted && rep.Held {
			t.Fatalf("epoch %d: drift-free epoch held", epoch)
		}
	}

	// Persistent shift: first alarm held, second matures and adopts.
	if rep := step(5); !rep.Held || rep.Recomputed {
		t.Fatalf("epoch 5: first persistent alarm = %+v, want held", rep)
	}
	rep := step(6)
	if !rep.Recomputed || !rep.Adopted {
		t.Fatalf("epoch 6: second persistent alarm = %+v, want adoption", rep)
	}

	// Cooldown: the shift back alarms with a maturing streak, but the
	// two cooldown epochs hold it; only epoch 9 may recompute.
	if rep := step(7); !rep.Held || rep.Recomputed {
		t.Fatalf("epoch 7: cooldown epoch = %+v, want held", rep)
	}
	if rep := step(8); !rep.Held || rep.Recomputed {
		t.Fatalf("epoch 8: cooldown epoch = %+v, want held", rep)
	}
	rep9 := step(9)
	if !rep9.Recomputed {
		t.Fatalf("epoch 9: post-cooldown persistent alarm = %+v, want recompute", rep9)
	}

	st := rec.Stats()
	// Epoch 6 adopts; epoch 9's recompute adopts only if the modeled
	// gain of going back clears the migration cost (the gain model, not
	// the hysteresis, owns that call).
	want := uint64(1)
	if rep9.Adopted {
		want = 2
	}
	if st.Remaps != want {
		t.Fatalf("remaps = %d, want %d", st.Remaps, want)
	}
	if st.Epochs != 9 {
		t.Fatalf("epochs = %d, want 9", st.Epochs)
	}
}

// TestAdaptiveAdoptAfterDefaults pins the default: AdoptAfter 0 means
// adopt on the first alarm (the pre-hysteresis behaviour), so existing
// configs keep their semantics.
func TestAdaptiveAdoptAfterDefaults(t *testing.T) {
	cfg := AdaptiveConfig{}.withDefaults()
	if cfg.AdoptAfter != 1 {
		t.Fatalf("default AdoptAfter = %d, want 1", cfg.AdoptAfter)
	}
	if cfg.CooldownEpochs != 0 {
		t.Fatalf("default CooldownEpochs = %d, want 0", cfg.CooldownEpochs)
	}
}
