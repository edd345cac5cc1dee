package orwlnet

import (
	"math"
	"testing"

	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// FuzzRemapDeltaDecode exercises the schema v6 remap decoder — the
// delta body is fully attacker-controlled on a watch stream. Same
// contract as the other wire fuzz targets: rejecting is fine,
// panicking is not, and anything accepted must hold the documented
// invariants (epoch > 0, ascending in-range task ids, bounded PUs) and
// survive a re-encode round trip and an apply onto a matching cache.
func FuzzRemapDeltaDecode(f *testing.F) {
	prev := &placement.Assignment{
		Strategy:  placement.TreeMatch,
		ComputePU: []int{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15},
		ControlPU: []int{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
	}
	next := prev.Clone()
	next.ComputePU[3] = 7
	next.ComputePU[7] = 9
	ev := &ctrlplane.Remap{
		Machine:            "fig2",
		Epoch:              4,
		Drift:              0.1,
		Assignment:         next,
		MovedTasks:         []int{3, 7},
		RemappedPartitions: []int{1},
	}
	if d, err := buildRemapDelta(ev); err == nil {
		seed := encodeRemapDelta(nil, d)
		f.Add(seed)
		f.Add(seed[:len(seed)-2]) // truncated mid-pair
	}
	full, _ := encodeRemapFrame(nil, ev, false)
	f.Add(full) // the kind-0 sibling goes through the same entry point
	f.Add([]byte{})
	f.Add([]byte{protoVersion})
	f.Add([]byte{protoVersion, remapKindDelta})
	f.Add([]byte{protoVersion, 0x7f}) // unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		full, d, err := decodeRemapFrameAny(data)
		if err != nil {
			return
		}
		if full != nil {
			// The full-frame path has its own fuzz target; just hold the
			// shared invariant here.
			if full.Epoch > 0 && full.Assignment == nil {
				t.Fatal("accepted a non-zero epoch without an assignment")
			}
			return
		}
		if d == nil {
			t.Fatal("decode succeeded with neither a full frame nor a delta")
		}
		if d.Epoch == 0 {
			t.Fatal("accepted a delta with epoch 0")
		}
		if d.Order <= 0 || d.Order > maxDeltaTasks {
			t.Fatalf("accepted delta order %d", d.Order)
		}
		prevTask := -1
		for i, task := range d.Tasks {
			if task <= prevTask || task >= d.Order {
				t.Fatalf("accepted out-of-range or non-ascending task %d", task)
			}
			prevTask = task
			if pu := d.ComputePU[i]; pu < 0 || pu > maxDeltaPU {
				t.Fatalf("accepted compute PU %d", pu)
			}
			if d.ControlPU != nil {
				if pu := d.ControlPU[i]; pu < -1 || pu > maxDeltaPU {
					t.Fatalf("accepted control PU %d", pu)
				}
			}
			if d.CoreOf != nil {
				if c := d.CoreOf[i]; c < 0 || c > maxDeltaPU {
					t.Fatalf("accepted core index %d", c)
				}
			}
		}
		_, d2, err := decodeRemapFrameAny(encodeRemapDelta(nil, d))
		if err != nil || d2 == nil {
			t.Fatalf("re-encoded delta rejected: %v", err)
		}
		if d2.Machine != d.Machine || d2.Epoch != d.Epoch || d2.Order != d.Order ||
			d2.Strategy != d.Strategy || d2.Flags != d.Flags || d2.Mode != d.Mode || d2.Aux != d.Aux ||
			math.Float64bits(d2.Drift) != math.Float64bits(d.Drift) {
			t.Fatalf("header changed across round trip: %+v -> %+v", d, d2)
		}
		if len(d2.Tasks) != len(d.Tasks) || len(d2.Parts) != len(d.Parts) {
			t.Fatal("pair/partition counts changed across round trip")
		}
		for i := range d.Tasks {
			if d2.Tasks[i] != d.Tasks[i] || d2.ComputePU[i] != d.ComputePU[i] {
				t.Fatalf("pair %d changed across round trip", i)
			}
		}
		// Anything accepted applies cleanly onto a shape-matched cache
		// (bounded to keep the allocation per exec small).
		if d.Order <= 4096 {
			cache := &placement.Assignment{ComputePU: make([]int, d.Order)}
			if d.Aux&deltaAuxControl != 0 {
				cache.ControlPU = make([]int, d.Order)
			}
			if d.Aux&deltaAuxCore != 0 {
				cache.CoreOf = make([]int, d.Order)
			}
			a, err := applyRemapDelta(cache, d)
			if err != nil {
				t.Fatalf("accepted delta does not apply: %v", err)
			}
			for i, task := range d.Tasks {
				if a.ComputePU[task] != d.ComputePU[i] {
					t.Fatalf("apply lost pair %d", i)
				}
			}
		}
	})
}
