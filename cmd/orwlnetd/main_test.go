package main

import (
	"os"
	"path/filepath"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// TestInspectSnapshot drives the -inspect-snapshot dump mode over a
// real snapshot file: readable files exit 0, and the failure shapes an
// operator meets (missing file, damage, bound mismatch) all exit 1.
func TestInspectSnapshot(t *testing.T) {
	const n = 4000 // beyond the default 2896-task bound
	base := comm.NewSparse(n)
	base.AddSym(0, 1, 1<<20)
	base.AddSym(n-2, n-1, 7)
	s := &ctrlplane.Snapshot{
		NextLeaseID: 2,
		Leases: []ctrlplane.LeaseRecord{
			{Lease: ctrlplane.Lease{ID: 1, Machine: "big", Peer: "p", TaskBase: 0, TaskCount: n, Token: 0xfeed}, LastSeq: 3},
		},
		Machines: []ctrlplane.MachineRecord{{
			Name:  "big",
			Order: n,
			Epoch: 2,
			Latest: &ctrlplane.Remap{
				Machine:    "big",
				Epoch:      2,
				Drift:      0.5,
				Assignment: &placement.Assignment{Strategy: "treematch", ComputePU: make([]int, n)},
			},
			Base: base,
		}},
	}
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	if err := ctrlplane.SaveSnapshot(path, s, 1); err != nil {
		t.Fatal(err)
	}

	if code := inspectSnapshot(path, 8192); code != 0 {
		t.Fatalf("inspect with a matching bound exited %d, want 0", code)
	}
	// The default bound is smaller than this fleet: the dump must fail
	// the same way a restoring daemon would, not silently truncate.
	if code := inspectSnapshot(path, ctrlplane.DefaultMaxLeaseTasks); code != 1 {
		t.Fatalf("inspect under the default bound exited %d, want 1", code)
	}
	if code := inspectSnapshot(filepath.Join(t.TempDir(), "absent"), 8192); code != 1 {
		t.Fatalf("inspect of a missing file exited %d, want 1", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if code := inspectSnapshot(bad, 8192); code != 1 {
		t.Fatalf("inspect of a corrupt file exited %d, want 1", code)
	}
}
