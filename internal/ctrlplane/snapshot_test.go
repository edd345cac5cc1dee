package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// snapFixture builds a representative snapshot: two leases (one owned,
// one legacy), two machines (one with an adopted remap and baseline,
// one still virgin).
func snapFixture() *Snapshot {
	base := comm.NewSparse(4)
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

// TestSnapshotRoundTrip: encode/decode is the identity.
func TestSnapshotRoundTrip(t *testing.T) {
	want := snapFixture()
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotLimit(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// goldenSnapshot is snapFixture with a two-part partition structure
// in the version 5 layout: the bytes a snapshot file on disk holds.
const goldenSnapshot = "4f52574c534e41500507020400666967320500616c7068610002effdb6f50d032904006669673204006265746102020007090204006669673204" +
	"05010900747265656d617463680000050004080c0502060a0e0500020406bfb00302010003000201010304060204040101c1600201c1600601c0" +
	"80120201c0801206006c6f6e656c790800000059c4507a"

// goldenSnapshotV4 is the same snapshot as the last build that wrote
// version 4 saved it, when a baseline field could also carry the dense
// layout: the payload is byte for byte today's.
const goldenSnapshotV4 = "4f52574c534e41500407020400666967320500616c7068610002effdb6f50d032904006669673204006265746102020007090204006669673204" +
	"05010900747265656d617463680000050004080c0502060a0e0500020406bfb00302010003000201010304060204040101c1600201c1600601c0" +
	"80120201c0801206006c6f6e656c7908000000a52c8617"

// TestSnapshotV4ImageRefused: a version 4 image is refused with the
// version error, before its payload is read.
func TestSnapshotV4ImageRefused(t *testing.T) {
	data, err := hex.DecodeString(goldenSnapshotV4)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ctrlplane: snapshot: unsupported version 4 (this daemon reads 5)"
	if _, err := DecodeSnapshotLimit(data, 0); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestSnapshotGoldenImage: the golden image decodes to the fixture and
// re-encodes to the same bytes.
func TestSnapshotGoldenImage(t *testing.T) {
	data, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotLimit(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := snapFixture()
	want.Machines[0].Latest.Assignment.Partitions = &treematch.Partitioning{Parts: []treematch.Partition{
		{Depth: 1, Object: 0, Tasks: []int{0, 1}}, {Depth: 1, Object: 1, Tasks: []int{2, 3}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden image decoded to\n %+v\nwant %+v", got, want)
	}
	again, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("golden image re-encodes to\n%x\nwant\n%x", again, data)
	}
}

// TestSnapshotRejectsDamage: every truncation and every bit flip of a
// valid snapshot must decode to an error, never to silently wrong
// state — the daemon's start-fresh path depends on damage being
// detected.
func TestSnapshotRejectsDamage(t *testing.T) {
	data, err := EncodeSnapshot(snapFixture())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshotLimit(data[:cut], 0); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(data))
		}
	}
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[i] ^= 1 << bit
			if _, err := DecodeSnapshotLimit(mut, 0); err == nil {
				t.Fatalf("flipping bit %d of byte %d decoded cleanly", bit, i)
			}
		}
	}
}

// withVersion returns a snapshot image with its version byte patched
// and the checksum fixed, so only the version is wrong.
func withVersion(data []byte, version byte) []byte {
	mut := bytes.Clone(data[:len(data)-4])
	mut[len(snapshotMagic)] = version
	return binary.BigEndian.AppendUint32(mut, crc32.ChecksumIEEE(mut))
}

// TestSnapshotRejectsUnknownVersion: every version byte but the one
// format — the retired versions 1 to 4 included — is refused before the
// payload is decoded.
func TestSnapshotRejectsUnknownVersion(t *testing.T) {
	data, err := EncodeSnapshot(snapFixture())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 2, 3, 4, SnapshotVersion + 1, 255} {
		mut := withVersion(data, v)
		want := fmt.Sprintf("ctrlplane: snapshot: unsupported version %d (this daemon reads %d)", v, SnapshotVersion)
		if _, err := DecodeSnapshotLimit(mut, 0); err == nil || err.Error() != want {
			t.Fatalf("version %d: err = %v, want %q", v, err, want)
		}
		// The refusal allocates its error (a few small objects, one more
		// under the race detector) and nothing sized by the file.
		if allocs := testing.AllocsPerRun(10, func() { DecodeSnapshotLimit(mut, 0) }); allocs > 4 {
			t.Fatalf("version %d: refusal made %.0f allocations", v, allocs)
		}
	}
}

// TestSaveLoadSnapshot: the file round trip, plus the two failure
// shapes the daemon distinguishes — absent (fresh start, silent) and
// corrupt (fresh start, warned).
func TestSaveLoadSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	if _, _, err := LoadSnapshot(path, 0, 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	want := snapFixture()
	if err := SaveSnapshot(path, want, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadSnapshot(path, 0, 1)
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
	if _, _, err := LoadSnapshot(path, 0, 1); err == nil {
		t.Fatal("corrupt snapshot loaded cleanly")
	}
}

// TestSnapshotOverCapBaselineRefused: a full order-1449 baseline holds
// more cells than a matrix field carries (codec.MaxMatrixCells), so the
// image is written with that baseline absent. The other machine's
// record round-trips, the wide machine keeps its epoch and latest
// remap, and a controller restored from the image re-primes it on its
// next window.
func TestSnapshotOverCapBaselineRefused(t *testing.T) {
	const n = 1449
	base := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		row := base.RowView(i)
		for j := range row {
			row[j] = 1
		}
	}
	s := snapFixture()
	latest := &Remap{Machine: "wide", Epoch: 3, Drift: 0.25, Assignment: &placement.Assignment{
		Strategy: "treematch", ComputePU: []int{3, 2, 1, 0}, ControlPU: []int{-1, -1, -1, -1}, CoreOf: []int{3, 2, 1, 0},
	}}
	s.Machines[1] = MachineRecord{Name: "wide", Order: n, Epoch: 3, Latest: latest, Base: base}
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	if err := SaveSnapshot(path, s, 2); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, _, err := LoadSnapshot(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Machines[0], snapFixture().Machines[0]) {
		t.Fatalf("the other machine decoded to %+v, want %+v", got.Machines[0], snapFixture().Machines[0])
	}
	want := MachineRecord{Name: "wide", Order: n, Epoch: 3, Latest: latest}
	if !reflect.DeepEqual(got.Machines[1], want) {
		t.Fatalf("the wide machine decoded to %+v, want %+v without its baseline", got.Machines[1], want)
	}

	fleet := testFleet(t)
	if err := fleet.AddMachine("wide", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(fleet, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Restore(got); err != nil {
		t.Fatal(err)
	}
	if ev := ctrl.Latest("wide"); ev == nil || ev.Epoch != 3 {
		t.Fatalf("restored latest of the wide machine = %+v, want epoch 3", ev)
	}
	lease, err := ctrl.RegisterToken("wide", "gamma", 0, ctrlTasks, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReportAffinity(lease.ID, 1, ringMatrix(ctrlTasks, 1<<20)); err != nil {
		t.Fatal(err)
	}
	rep, err := ctrl.Epoch("wide")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Recomputed || !rep.Adopted {
		t.Fatalf("first epoch of the restored wide machine = %+v, want a re-prime", rep)
	}
	// The collector restored the machine's task space, so the prime maps
	// all n tasks.
	if ev := ctrl.Latest("wide"); ev.Epoch != 4 || len(ev.Assignment.ComputePU) != n {
		t.Fatalf("re-primed remap = epoch %d over %d tasks, want epoch 4 over %d", ev.Epoch, len(ev.Assignment.ComputePU), n)
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
// panic, whatever bytes are on disk. It decodes under a raised lease-task
// bound, where the memory bound still holds: every accepted baseline is
// a *comm.Sparse within codec.MaxMatrixCells.
func FuzzSnapshotDecode(f *testing.F) {
	data, err := EncodeSnapshot(snapFixture())
	if err != nil {
		f.Fatal(err)
	}
	golden, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(golden)
	f.Add(withVersion(golden, 1))
	f.Add(withVersion(golden, 2))
	f.Add(withVersion(golden, 3))
	if v4, err := hex.DecodeString(goldenSnapshotV4); err == nil {
		f.Add(v4)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshotLimit(data, 1<<16)
		if err != nil {
			return
		}
		for _, mr := range s.Machines {
			if mr.Base == nil {
				continue
			}
			if _, sparse := mr.Base.(*comm.Sparse); !sparse || mr.Base.NNZ() > codec.MaxMatrixCells {
				t.Fatalf("accepted an order-%d %T baseline holding %d nonzeros", mr.Base.Order(), mr.Base, mr.Base.NNZ())
			}
		}
		// Accepted input must re-encode: decode is only allowed to
		// produce snapshots the encoder understands.
		if _, err := EncodeSnapshot(s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}
