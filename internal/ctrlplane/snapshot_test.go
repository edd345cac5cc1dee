package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// snapFixture builds a representative snapshot: two leases (one owned,
// one legacy), two machines (one with an adopted remap and baseline,
// one still virgin).
func snapFixture() *Snapshot {
	base := comm.NewMatrix(4)
	base.AddSym(0, 1, 1<<20)
	base.AddSym(2, 3, 512.5)
	return &Snapshot{
		NextLeaseID: 7,
		Leases: []LeaseRecord{
			{Lease: Lease{ID: 3, Machine: "fig2", Peer: "alpha", TaskBase: 0, TaskCount: 2, Token: 0xdeadbeef}, LastSeq: 41},
			{Lease: Lease{ID: 7, Machine: "fig2", Peer: "beta", TaskBase: 2, TaskCount: 2}, LastSeq: 9},
		},
		Machines: []MachineRecord{
			{
				Name:  "fig2",
				Order: 4,
				Epoch: 5,
				Latest: &Remap{
					Machine: "fig2",
					Epoch:   5,
					Drift:   0.375,
					Assignment: &placement.Assignment{
						Strategy:  "treematch",
						ComputePU: []int{0, 2, 4, 6},
						ControlPU: []int{1, 3, 5, 7},
						CoreOf:    []int{0, 1, 2, 3},
					},
				},
				Base: base,
			},
			{Name: "lonely", Order: 8, Epoch: 0},
		},
	}
}

// TestSnapshotRoundTrip: encode/decode is the identity at every
// supported version (modulo what old versions do not carry).
func TestSnapshotRoundTrip(t *testing.T) {
	for _, version := range []int{SnapshotVersionLeases, SnapshotVersionBaseline, SnapshotVersionSparse} {
		want := snapFixture()
		data, err := EncodeSnapshot(want, version)
		if err != nil {
			t.Fatalf("v%d encode: %v", version, err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("v%d decode: %v", version, err)
		}
		if version < SnapshotVersionBaseline {
			// Version 1 does not persist baselines; erase them from the
			// expectation.
			want.Machines[0].Base = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("v%d round trip changed the snapshot:\n got %+v\nwant %+v", version, got, want)
		}
	}
}

// TestSnapshotRejectsDamage: every truncation and every bit flip of a
// valid snapshot must decode to an error, never to silently wrong
// state — the daemon's start-fresh path depends on damage being
// detected.
func TestSnapshotRejectsDamage(t *testing.T) {
	data, err := EncodeSnapshot(snapFixture(), SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(data))
		}
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[i] ^= 1 << bit
			if _, err := DecodeSnapshot(mut); err == nil {
				t.Fatalf("flipping bit %d of byte %d decoded cleanly", bit, i)
			}
		}
	}
}

func TestSnapshotRejectsUnknownVersion(t *testing.T) {
	data, err := EncodeSnapshot(snapFixture(), SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	// Patch the version byte and fix the checksum so only the version
	// skew is wrong.
	mut := bytes.Clone(data[:len(data)-4])
	mut[len(snapshotMagic)] = SnapshotVersion + 1
	mut = binary.BigEndian.AppendUint32(mut, crc32.ChecksumIEEE(mut))
	if _, err := DecodeSnapshot(mut); err == nil {
		t.Fatal("future version decoded cleanly")
	}
}

// TestSaveLoadSnapshot: the file round trip, plus the two failure
// shapes the daemon distinguishes — absent (fresh start, silent) and
// corrupt (fresh start, warned).
func TestSaveLoadSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	if _, err := LoadSnapshot(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	want := snapFixture()
	if err := SaveSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip changed the snapshot")
	}
	// Atomic write leaves no temp litter next to the snapshot.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot", len(entries))
	}
	// Corrupt the tail: load must fail, not hand back damaged state.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot loaded cleanly")
	}
}

// TestControllerSnapshotRestore: a controller that adopted a mapping
// snapshots, a fresh controller restores, and the fleet resumes —
// same lease IDs, same epoch counter, primed reconciler.
func TestControllerSnapshotRestore(t *testing.T) {
	build := func() *Controller {
		t.Helper()
		ctrl, err := NewController(testFleet(t), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	ctrl := build()
	lease, err := ctrl.RegisterToken("", "alpha", 0, ctrlTasks, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReportAffinity(lease.ID, 1, ringMatrix(ctrlTasks, 1<<20)); err != nil {
		t.Fatal(err)
	}
	rep, err := ctrl.Epoch("")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Adopted {
		t.Fatal("priming epoch did not adopt")
	}
	snap := ctrl.Snapshot()

	restored := build()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The lease survives under its old ID with its sequence history:
	// a retransmit of the already-merged window is accepted and deduped.
	if err := restored.ReportAffinity(lease.ID, 1, ringMatrix(ctrlTasks, 1<<20)); err != nil {
		t.Fatalf("report on restored lease: %v", err)
	}
	ev := restored.Latest("")
	if ev == nil || ev.Epoch != ctrl.Latest("").Epoch {
		t.Fatalf("restored latest = %+v, want the snapshotted adoption", ev)
	}
	// The deduped retransmit merged no traffic, so the restored (and
	// primed) reconciler sees an idle epoch — no spurious re-adoption.
	rep2, err := restored.Epoch("")
	if err != nil {
		t.Fatal(err)
	}
	if rep2 != nil && rep2.Adopted {
		t.Fatalf("restored controller re-adopted on a deduped retransmit: %+v", rep2)
	}
	// The epoch counter resumes: the next adoption is stamped above the
	// snapshotted epoch, not back at 1.
	if err := restored.ReportAffinity(lease.ID, 2, clusterMatrix(ctrlTasks, 4, 1<<20)); err != nil {
		t.Fatal(err)
	}
	rep3, err := restored.Epoch("")
	if err != nil {
		t.Fatal(err)
	}
	if rep3 == nil || !rep3.Adopted {
		t.Fatalf("golden shift after restore = %+v, want adoption", rep3)
	}
	if next := restored.Latest(""); next.Epoch <= ev.Epoch {
		t.Fatalf("post-restore adoption epoch %d did not advance past snapshotted %d", next.Epoch, ev.Epoch)
	}
	// Ownership survives too: a stranger still cannot displace the lease.
	if _, err := restored.RegisterToken("", "alpha", 0, ctrlTasks, 0xbad); err == nil {
		t.Fatal("restored owned lease displaced by the wrong token")
	}
}

// FuzzSnapshotDecode: the decoder must reject or round-trip, never
// panic, whatever bytes are on disk.
func FuzzSnapshotDecode(f *testing.F) {
	for _, version := range []int{SnapshotVersionLeases, SnapshotVersionBaseline, SnapshotVersionSparse} {
		data, err := EncodeSnapshot(snapFixture(), version)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted input must re-encode: decode is only allowed to
		// produce snapshots the encoder understands.
		if _, err := EncodeSnapshot(s, SnapshotVersion); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}
