package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

// packSnapshot seals hand-packed payload fields into a version-5 image:
// magic, version byte, the fields, and a valid CRC32 trailer, so the
// payload is the only thing a case gets wrong.
func packSnapshot(fields ...[]byte) []byte {
	b := append([]byte(snapshotMagic), SnapshotVersion)
	for _, f := range fields {
		b = append(b, f...)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// packedFields is one lease and one adopted machine, field by field.
func packedFields() [][]byte {
	return [][]byte{
		{7},                                 // 0 next lease id
		{1},                                 // 1 lease count
		{4, 0, 'f', 'i', 'g', '2'},          // 2 machine
		{1, 0, 'a'},                         // 3 peer
		{0},                                 // 4 task base
		{2},                                 // 5 task count
		{0},                                 // 6 token
		{3},                                 // 7 lease id
		{9},                                 // 8 last seq
		{1},                                 // 9 machine count
		{4, 0, 'f', 'i', 'g', '2'},          // 10 name
		{2},                                 // 11 order
		{5},                                 // 12 epoch
		{1, 1, 0, 't', 0, 0, 3, 0, 2, 0, 0}, // 13 assignment: strategy "t", compute [0 1], no control, no cores
		{0xbf, 0xb0, 0x03},                  // 14 drift 0.375, byte-reversed bits as a varint
		{1, 1, 0, 3, 0, 2},                  // 15 partitions: one, depth 1, object 0, tasks [0 1]
		{2, 2, 2, 1, 1, 0x40, 0, 1, 0x40},   // 16 baseline: sparse, order 2, 2.0 at cells 1 and 2, one run a row
	}
}

// withField returns packedFields with field i replaced.
func withField(i int, b []byte) [][]byte {
	f := packedFields()
	f[i] = b
	return f
}

func TestSnapshotPackedImageDecodes(t *testing.T) {
	got, err := DecodeSnapshotLimit(packSnapshot(packedFields()...), 0)
	if err != nil {
		t.Fatal(err)
	}
	base := comm.NewSparse(2)
	base.AddSym(0, 1, 2)
	a := &placement.Assignment{Strategy: "t", ComputePU: []int{0, 1},
		Partitions: &treematch.Partitioning{Parts: []treematch.Partition{{Depth: 1, Object: 0, Tasks: []int{0, 1}}}}}
	want := &Snapshot{
		NextLeaseID: 7,
		Leases:      []LeaseRecord{{Lease: Lease{ID: 3, Machine: "fig2", Peer: "a", TaskCount: 2}, LastSeq: 9}},
		Machines: []MachineRecord{{Name: "fig2", Order: 2, Epoch: 5, Base: base,
			Latest: &Remap{Machine: "fig2", Epoch: 5, Drift: 0.375, Assignment: a}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed image decoded to\n %+v\nwant %+v", got, want)
	}
	if again, _ := EncodeSnapshot(got); !bytes.Equal(again, packSnapshot(packedFields()...)) {
		t.Fatalf("packed image re-encodes to %x", again)
	}
}

// TestSnapshotTruncatedFields: the payload cut before each field, and
// inside each multi-byte one, resealed, fails with that field's error.
func TestSnapshotTruncatedFields(t *testing.T) {
	const varint = "codec: truncated or overlong varint"
	atField := []string{
		0:  varint,
		1:  varint,
		2:  "ctrlplane: snapshot: 1 leases overrun the 0 bytes left",
		3:  "ctrlplane: snapshot: 1 leases overrun the 6 bytes left",
		4:  varint,
		5:  varint,
		6:  varint,
		7:  varint,
		8:  varint,
		9:  varint,
		10: "ctrlplane: snapshot: 1 machines overrun the 0 bytes left",
		11: varint,
		12: varint,
		13: "codec: truncated bool",
		14: varint,
		15: varint,
		16: "codec: truncated matrix mode",
	}
	fields := packedFields()
	for i, want := range atField {
		img := packSnapshot(fields[:i]...)
		if _, err := DecodeSnapshotLimit(img, 0); err == nil || err.Error() != want {
			t.Errorf("cut before field %d: err = %v, want %q", i, err, want)
		}
	}
	// Cuts inside a field: the field's first k bytes, then nothing.
	inside := []struct {
		field, k int
		want     string
	}{
		{13, 1, "codec: truncated string"},
		{13, 3, "codec: truncated string body"},
		{13, 4, "codec: truncated assignment"},
		{13, 7, "codec: truncated varint int slice (2 entries)"},
		{13, 9, varint},
		{14, 2, varint},
		{15, 3, "ctrlplane: snapshot: 1 partitions overrun the 2 bytes left"},
		{15, 5, "codec: truncated varint int slice (2 entries)"},
		{16, 1, varint},
		{16, 3, "codec: absurd sparse run count 2"},
		{16, 6, varint},
	}
	for _, c := range inside {
		cut := append(append([][]byte(nil), fields[:c.field]...), fields[c.field][:c.k])
		if _, err := DecodeSnapshotLimit(packSnapshot(cut...), 0); err == nil || err.Error() != c.want {
			t.Errorf("field %d cut to %d bytes: err = %v, want %q", c.field, c.k, err, c.want)
		}
	}
}

// TestSnapshotDecodeRejections: every count is checked against the
// bytes left before anything is sized by it, and every bound holds.
func TestSnapshotDecodeRejections(t *testing.T) {
	// A sparse baseline of order 4000 > MaxMatrixOrder: one run of
	// length cells of the value whose reversed bits are raw.
	above := func(length, raw uint64) []byte {
		b := codec.PutUvarint([]byte{codec.MatSparse}, 4000)
		b = append(b, 1, 0) // one run, no gap
		return codec.PutUvarint(codec.PutUvarint(b, length), raw)
	}
	const cellCap = codec.MaxMatrixCells
	cases := []struct {
		name     string
		image    []byte
		maxTasks int
		want     string
	}{
		{"too short", []byte("ORWLSNAP\x04"), 0, "ctrlplane: snapshot: 9 bytes is too short to be a snapshot"},
		{"bad magic", append([]byte("ORWLSNAQ\x04"), 0, 0, 0, 0), 0, "ctrlplane: snapshot: bad magic (not a control-plane snapshot)"},
		{"checksum", append(packSnapshot(packedFields()...), 0), 0, "ctrlplane: snapshot: checksum mismatch — file damaged"},
		{"lease count over the bytes left", packSnapshot(withField(1, []byte{0x7f})...), 0, "ctrlplane: snapshot: 127 leases overrun the 52 bytes left"},
		{"machine count over the bytes left", packSnapshot(withField(9, []byte{0x7f})...), 0, "ctrlplane: snapshot: 127 machines overrun the 37 bytes left"},
		{"int slice over the bytes left", packSnapshot(withField(13, []byte{1, 1, 0, 't', 0, 0, 0x7f, 0, 2, 0, 0})...), 0, "codec: truncated varint int slice (126 entries)"},
		{"partitions over the bytes left", packSnapshot(withField(15, []byte{0x7f, 1, 0, 3, 0, 2})...), 0, "ctrlplane: snapshot: 127 partitions overrun the 14 bytes left"},
		{"empty lease range", packSnapshot(withField(5, []byte{0})...), 0, "ctrlplane: snapshot: lease 3 range [0,+0) out of bounds (max 2896 tasks)"},
		{"lease range over maxTasks", packSnapshot(withField(5, []byte{3})...), 2, "ctrlplane: snapshot: lease 3 range [0,+3) out of bounds (max 2 tasks)"},
		{"machine order over maxTasks", packSnapshot(withField(11, []byte{3})...), 2, `ctrlplane: snapshot: machine "fig2" order 3 out of bounds (max 2 tasks)`},
		{"sparse baseline order over maxTasks", packSnapshot(withField(16, []byte{2, 3, 0})...), 2, "codec: sparse matrix order 3 exceeds limit 2"},
		{"dense baseline (the retired mode 1)", packSnapshot(withField(16, []byte{1, 2, 0, 0, 0, 0, 0, 0, 0})...), 2, "codec: unknown matrix mode 1"},
		{"run over the cell cap above MaxMatrixOrder", packSnapshot(withField(16, above(cellCap+1, 0x40))...), 1 << 16,
			"codec: order-4000 sparse body claims 2096705 cells, over the 2096704 a body may hold"},
		{"trailing byte", packSnapshot(append(packedFields(), []byte{0})...), 0, "ctrlplane: snapshot: 1 trailing bytes after the last record"},
	}
	for _, c := range cases {
		if _, err := DecodeSnapshotLimit(c.image, c.maxTasks); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// The same run at the cap decodes above MaxMatrixOrder, and a -0
	// cell decodes as no cell.
	s, err := DecodeSnapshotLimit(packSnapshot(withField(16, above(cellCap, 0x40))...), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Machines[0].Base; b.NNZ() != cellCap {
		t.Fatalf("run at the cap decoded to %d cells", b.NNZ())
	}
	if s, err = DecodeSnapshotLimit(packSnapshot(withField(16, above(1, 0x80))...), 1<<16); err != nil || s.Machines[0].Base.NNZ() != 0 {
		t.Fatalf("-0 cell: %v", err)
	}
}
