package ctrlplane

// Control-plane durability. A daemon restart used to discard every
// lease, epoch and adopted mapping, stranding the fleet's placement
// history; this file gives the controller a snapshot it can write
// atomically and restore on startup, so a restarted daemon resumes at
// its last snapshotted epoch instead of re-priming from zero.
//
// The file format is deliberately self-contained (no dependency on the
// wire codecs, which evolve with the protocol):
//
//	magic "ORWLSNAP" | version byte | payload | CRC32-IEEE (big endian)
//
// The checksum covers magic, version and payload, so truncation and
// bit flips are both caught. The payload persists leases, orders,
// epochs, adopted assignments (with their partition structure) and
// each machine's drift-baseline matrix as a sparse nonzero list,
// letting a restored reconciler measure drift against the matrix its
// adopted mapping was computed from. There is one version; any other
// version byte, like a checksum failure, decodes to an error — the
// daemon logs it and starts fresh rather than crashing or trusting
// damaged state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

const (
	// snapshotMagic identifies a control-plane snapshot file.
	snapshotMagic = "ORWLSNAP"
	// SnapshotVersion is the one snapshot format: the baseline as a
	// sparse nonzero list — O(nnz) on disk, the only form that scales
	// to the raised lease-task bounds — and the assignment's partition
	// structure, so a restored reconciler resumes per-subtree drift
	// tracking. A format change bumps it and replaces the layout.
	SnapshotVersion = 3

	// snapMaxCount bounds decoded collection lengths, so a corrupt or
	// hostile length prefix cannot force a huge allocation before the
	// checksum would have caught it.
	snapMaxCount = 1 << 20
)

// LeaseRecord is one persisted lease: the lease identity plus the
// highest report sequence merged under it, so retransmits arriving
// after a restart do not double-count traffic.
type LeaseRecord struct {
	Lease
	LastSeq uint64
}

// MachineRecord is one machine's persisted reconciliation state.
type MachineRecord struct {
	Name string
	// Order is the machine's global task-space size (it can exceed the
	// union of live leases: evicted leases' ranges stay claimed).
	Order int
	// Epoch is the machine's adoption counter; the next adopted remap
	// is stamped Epoch+1.
	Epoch uint64
	// Latest is the newest adopted remap, nil before the first
	// adoption.
	Latest *Remap
	// Base is the drift baseline backing Latest.Assignment, nil before
	// the first adoption. Restoring it re-primes the machine's
	// reconciler. The file carries it as a sparse nonzero list; in
	// memory it is whatever representation matches the order.
	Base comm.Affinity
}

// Snapshot is the controller state worth surviving a restart. Pending
// (merged-but-unreconciled) observed windows are deliberately not
// persisted: they are one epoch of in-flight traffic, and clients keep
// reporting after a reconnect.
type Snapshot struct {
	NextLeaseID uint64
	Leases      []LeaseRecord
	Machines    []MachineRecord
}

// --- binary helpers -------------------------------------------------
//
// Everything is length-prefixed uvarints and fixed 8-byte floats; the
// helpers mirror the wire codec's shape but stay private to the file
// format, so wire evolution cannot silently change what old snapshots
// mean.

func snapPutString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func snapGetUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("ctrlplane: snapshot: truncated varint")
	}
	return v, src[n:], nil
}

func snapGetString(src []byte) (string, []byte, error) {
	n, rest, err := snapGetUvarint(src)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("ctrlplane: snapshot: string of %d bytes overruns payload", n)
	}
	return string(rest[:n]), rest[n:], nil
}

func snapPutFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func snapGetFloat(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("ctrlplane: snapshot: truncated float")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(src)), src[8:], nil
}

// snapPutIntSlice writes a length-prefixed zigzag-varint int slice
// (ControlPU carries -1 for "leave to the OS").
func snapPutIntSlice(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

func snapGetIntSlice(src []byte) ([]int, []byte, error) {
	n, rest, err := snapGetUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	if n > snapMaxCount {
		return nil, nil, fmt.Errorf("ctrlplane: snapshot: int slice of %d entries exceeds the cap", n)
	}
	out := make([]int, n)
	for i := range out {
		v, k := binary.Varint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("ctrlplane: snapshot: truncated int slice")
		}
		out[i] = int(v)
		rest = rest[k:]
	}
	return out, rest, nil
}

// snapPutSparseMatrix writes the baseline record: order,
// nonzero count, then (row, col, value) triples in row-major order —
// deterministic (ForEachRow yields ascending columns) and O(nnz) on
// disk however large the task space is.
func snapPutSparseMatrix(dst []byte, a comm.Affinity) []byte {
	if a == nil {
		return binary.AppendUvarint(dst, 0)
	}
	n := a.Order()
	dst = binary.AppendUvarint(dst, uint64(n)+1) // 0 = nil, k+1 = order k
	dst = binary.AppendUvarint(dst, uint64(a.NNZ()))
	for i := 0; i < n; i++ {
		a.ForEachRow(i, func(j int, v float64) {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendUvarint(dst, uint64(j))
			dst = snapPutFloat(dst, v)
		})
	}
	return dst
}

func snapGetSparseMatrix(src []byte, maxTasks int) (comm.Affinity, []byte, error) {
	enc, rest, err := snapGetUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if enc == 0 {
		return nil, rest, nil
	}
	n := int(enc - 1)
	if n > maxTasks {
		return nil, nil, fmt.Errorf("ctrlplane: snapshot: matrix order %d exceeds the %d-task cap", n, maxTasks)
	}
	nnz, rest, err := snapGetUvarint(rest)
	if err != nil {
		return nil, nil, err
	}
	// Each entry is at least two 1-byte varints plus an 8-byte float;
	// a count the payload cannot possibly hold is damage, not data.
	if nnz > uint64(len(rest))/10 {
		return nil, nil, fmt.Errorf("ctrlplane: snapshot: %d sparse entries overrun the payload", nnz)
	}
	a := comm.NewAffinity(n)
	for k := uint64(0); k < nnz; k++ {
		var i, j uint64
		if i, rest, err = snapGetUvarint(rest); err != nil {
			return nil, nil, err
		}
		if j, rest, err = snapGetUvarint(rest); err != nil {
			return nil, nil, err
		}
		var v float64
		if v, rest, err = snapGetFloat(rest); err != nil {
			return nil, nil, err
		}
		if i >= uint64(n) || j >= uint64(n) {
			return nil, nil, fmt.Errorf("ctrlplane: snapshot: sparse entry (%d,%d) outside a %d-task matrix", i, j, n)
		}
		a.Set(int(i), int(j), v)
	}
	return a, rest, nil
}

const (
	snapAssignUnbound        = 1 << 0
	snapAssignOversubscribed = 1 << 1
	snapAssignHasControl     = 1 << 2
	snapAssignHasCoreOf      = 1 << 3
	// snapAssignHasPartitions marks a persisted partition structure.
	snapAssignHasPartitions = 1 << 4
)

func snapPutAssignment(dst []byte, a *placement.Assignment) []byte {
	if a == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	parts := a.Partitions
	var flags byte
	if a.Unbound {
		flags |= snapAssignUnbound
	}
	if a.Oversubscribed {
		flags |= snapAssignOversubscribed
	}
	if a.ControlPU != nil {
		flags |= snapAssignHasControl
	}
	if a.CoreOf != nil {
		flags |= snapAssignHasCoreOf
	}
	if parts != nil {
		flags |= snapAssignHasPartitions
	}
	dst = append(dst, flags)
	dst = snapPutString(dst, a.Strategy)
	dst = binary.AppendUvarint(dst, uint64(a.Mode))
	dst = snapPutIntSlice(dst, a.ComputePU)
	if a.ControlPU != nil {
		dst = snapPutIntSlice(dst, a.ControlPU)
	}
	if a.CoreOf != nil {
		dst = snapPutIntSlice(dst, a.CoreOf)
	}
	if parts != nil {
		dst = binary.AppendUvarint(dst, uint64(len(parts.Parts)))
		for _, p := range parts.Parts {
			dst = binary.AppendUvarint(dst, uint64(p.Depth))
			dst = binary.AppendUvarint(dst, uint64(p.Object))
			dst = snapPutIntSlice(dst, p.Tasks)
		}
	}
	return dst
}

func snapGetAssignment(src []byte) (*placement.Assignment, []byte, error) {
	if len(src) < 1 {
		return nil, nil, fmt.Errorf("ctrlplane: snapshot: truncated assignment")
	}
	present, rest := src[0], src[1:]
	if present == 0 {
		return nil, rest, nil
	}
	if len(rest) < 1 {
		return nil, nil, fmt.Errorf("ctrlplane: snapshot: truncated assignment flags")
	}
	flags := rest[0]
	rest = rest[1:]
	a := &placement.Assignment{
		Unbound:        flags&snapAssignUnbound != 0,
		Oversubscribed: flags&snapAssignOversubscribed != 0,
	}
	var err error
	if a.Strategy, rest, err = snapGetString(rest); err != nil {
		return nil, nil, err
	}
	var mode uint64
	if mode, rest, err = snapGetUvarint(rest); err != nil {
		return nil, nil, err
	}
	a.Mode = treematch.ControlMode(mode)
	if a.ComputePU, rest, err = snapGetIntSlice(rest); err != nil {
		return nil, nil, err
	}
	if flags&snapAssignHasControl != 0 {
		if a.ControlPU, rest, err = snapGetIntSlice(rest); err != nil {
			return nil, nil, err
		}
	}
	if flags&snapAssignHasCoreOf != 0 {
		if a.CoreOf, rest, err = snapGetIntSlice(rest); err != nil {
			return nil, nil, err
		}
	}
	if flags&snapAssignHasPartitions != 0 {
		var np uint64
		if np, rest, err = snapGetUvarint(rest); err != nil {
			return nil, nil, err
		}
		if np > snapMaxCount {
			return nil, nil, fmt.Errorf("ctrlplane: snapshot: %d partitions exceeds the cap", np)
		}
		parts := &treematch.Partitioning{Parts: make([]treematch.Partition, 0, np)}
		for k := uint64(0); k < np; k++ {
			var p treematch.Partition
			var u uint64
			if u, rest, err = snapGetUvarint(rest); err != nil {
				return nil, nil, err
			}
			p.Depth = int(u)
			if u, rest, err = snapGetUvarint(rest); err != nil {
				return nil, nil, err
			}
			p.Object = int(u)
			if p.Tasks, rest, err = snapGetIntSlice(rest); err != nil {
				return nil, nil, err
			}
			parts.Parts = append(parts.Parts, p)
		}
		a.Partitions = parts
	}
	return a, rest, nil
}

// --- codec ----------------------------------------------------------

// EncodeSnapshot serialises s in the SnapshotVersion format. The
// output is deterministic: leases sort by ID, machines by name.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("ctrlplane: nil snapshot")
	}
	leases := append([]LeaseRecord(nil), s.Leases...)
	sort.Slice(leases, func(i, j int) bool { return leases[i].ID < leases[j].ID })
	machines := append([]MachineRecord(nil), s.Machines...)
	sort.Slice(machines, func(i, j int) bool { return machines[i].Name < machines[j].Name })

	dst := append([]byte(nil), snapshotMagic...)
	dst = append(dst, SnapshotVersion)
	dst = binary.AppendUvarint(dst, s.NextLeaseID)
	dst = binary.AppendUvarint(dst, uint64(len(leases)))
	for _, lr := range leases {
		dst = binary.AppendUvarint(dst, lr.ID)
		dst = snapPutString(dst, lr.Machine)
		dst = snapPutString(dst, lr.Peer)
		dst = binary.AppendUvarint(dst, uint64(lr.TaskBase))
		dst = binary.AppendUvarint(dst, uint64(lr.TaskCount))
		dst = binary.AppendUvarint(dst, lr.Token)
		dst = binary.AppendUvarint(dst, lr.LastSeq)
	}
	dst = binary.AppendUvarint(dst, uint64(len(machines)))
	for _, mr := range machines {
		dst = snapPutString(dst, mr.Name)
		dst = binary.AppendUvarint(dst, uint64(mr.Order))
		dst = binary.AppendUvarint(dst, mr.Epoch)
		if mr.Latest == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = snapPutFloat(dst, mr.Latest.Drift)
			dst = snapPutAssignment(dst, mr.Latest.Assignment)
		}
		dst = snapPutSparseMatrix(dst, mr.Base)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst)), nil
}

// DecodeSnapshot parses and verifies a snapshot file image against the
// default lease-task bound. Damage of any kind — bad magic, unknown
// version, checksum mismatch, truncation — is an error; the caller is
// expected to log it and start fresh.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	return DecodeSnapshotLimit(data, 0)
}

// DecodeSnapshotLimit is DecodeSnapshot with an explicit lease-task
// bound (0 = DefaultMaxLeaseTasks): lease ranges and matrix orders
// beyond it are rejected. A daemon running with a raised
// -max-lease-tasks must decode with the same bound it registers
// with, or its own snapshots would fail to restore.
func DecodeSnapshotLimit(data []byte, maxTasks int) (*Snapshot, error) {
	if maxTasks <= 0 {
		maxTasks = DefaultMaxLeaseTasks
	}
	if len(data) < len(snapshotMagic)+1+4 {
		return nil, fmt.Errorf("ctrlplane: snapshot: %d bytes is too short to be a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("ctrlplane: snapshot: bad magic (not a control-plane snapshot)")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("ctrlplane: snapshot: checksum mismatch (stored %08x, computed %08x) — file damaged", sum, got)
	}
	if version := body[len(snapshotMagic)]; version != SnapshotVersion {
		return nil, fmt.Errorf("ctrlplane: snapshot: unsupported version %d (this daemon reads %d)", version, SnapshotVersion)
	}
	rest := body[len(snapshotMagic)+1:]

	s := &Snapshot{}
	var err error
	if s.NextLeaseID, rest, err = snapGetUvarint(rest); err != nil {
		return nil, err
	}
	var n uint64
	if n, rest, err = snapGetUvarint(rest); err != nil {
		return nil, err
	}
	if n > snapMaxCount {
		return nil, fmt.Errorf("ctrlplane: snapshot: %d leases exceeds the cap", n)
	}
	s.Leases = make([]LeaseRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var lr LeaseRecord
		if lr.ID, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		if lr.Machine, rest, err = snapGetString(rest); err != nil {
			return nil, err
		}
		if lr.Peer, rest, err = snapGetString(rest); err != nil {
			return nil, err
		}
		var u uint64
		if u, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		lr.TaskBase = int(u)
		if u, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		lr.TaskCount = int(u)
		if lr.TaskBase < 0 || lr.TaskCount <= 0 || lr.TaskBase+lr.TaskCount > maxTasks {
			return nil, fmt.Errorf("ctrlplane: snapshot: lease %d range [%d,+%d) out of bounds (max %d tasks)", lr.ID, lr.TaskBase, lr.TaskCount, maxTasks)
		}
		if lr.Token, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		if lr.LastSeq, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		s.Leases = append(s.Leases, lr)
	}
	if n, rest, err = snapGetUvarint(rest); err != nil {
		return nil, err
	}
	if n > snapMaxCount {
		return nil, fmt.Errorf("ctrlplane: snapshot: %d machines exceeds the cap", n)
	}
	s.Machines = make([]MachineRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var mr MachineRecord
		if mr.Name, rest, err = snapGetString(rest); err != nil {
			return nil, err
		}
		var u uint64
		if u, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		mr.Order = int(u)
		if mr.Order < 0 || mr.Order > maxTasks {
			return nil, fmt.Errorf("ctrlplane: snapshot: machine %q order %d out of bounds (max %d tasks)", mr.Name, mr.Order, maxTasks)
		}
		if mr.Epoch, rest, err = snapGetUvarint(rest); err != nil {
			return nil, err
		}
		if len(rest) < 1 {
			return nil, fmt.Errorf("ctrlplane: snapshot: truncated machine record")
		}
		hasLatest := rest[0] != 0
		rest = rest[1:]
		if hasLatest {
			ev := &Remap{Machine: mr.Name, Epoch: mr.Epoch}
			if ev.Drift, rest, err = snapGetFloat(rest); err != nil {
				return nil, err
			}
			if ev.Assignment, rest, err = snapGetAssignment(rest); err != nil {
				return nil, err
			}
			if ev.Assignment == nil {
				return nil, fmt.Errorf("ctrlplane: snapshot: machine %q adopted remap without an assignment", mr.Name)
			}
			mr.Latest = ev
		}
		if mr.Base, rest, err = snapGetSparseMatrix(rest, maxTasks); err != nil {
			return nil, err
		}
		s.Machines = append(s.Machines, mr)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ctrlplane: snapshot: %d trailing bytes after the last record", len(rest))
	}
	return s, nil
}

// SnapshotFileInfo reports the container-level facts of a snapshot
// image — schema version and checksum integrity — without decoding the
// payload. Inspection tooling uses it to tell "damaged file" apart
// from "valid file the current bounds reject".
func SnapshotFileInfo(data []byte) (version int, crcOK bool, err error) {
	if len(data) < len(snapshotMagic)+1+4 {
		return 0, false, fmt.Errorf("ctrlplane: snapshot: %d bytes is too short to be a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return 0, false, fmt.Errorf("ctrlplane: snapshot: bad magic (not a control-plane snapshot)")
	}
	version = int(data[len(snapshotMagic)])
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	return version, crc32.ChecksumIEEE(body) == sum, nil
}

// SaveSnapshot writes s to path atomically (temp file in the same
// directory, fsync, rename), so a crash mid-write leaves the previous
// snapshot intact.
func SaveSnapshot(path string, s *Snapshot) error {
	data, err := EncodeSnapshot(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	return nil
}

// snapshotRotation names the numbered generations behind path:
// path.1 is the previous snapshot, path.2 the one before, and so on.
func snapshotRotation(path string, i int) string {
	return fmt.Sprintf("%s.%d", path, i)
}

// SaveSnapshotRotate is SaveSnapshot with retention: before the fresh
// write, the existing generations shift down one slot (path → path.1 →
// … → path.(keep-1), the oldest falling off), so the last keep
// snapshots survive. keep <= 1 is plain SaveSnapshot. Rotation is a
// chain of renames oldest-first, so a crash at any point leaves every
// surviving generation intact (at worst the newest state lives in
// path.1 until the next save); the fresh write itself stays atomic.
func SaveSnapshotRotate(path string, s *Snapshot, keep int) error {
	if keep <= 1 {
		return SaveSnapshot(path, s)
	}
	for i := keep - 2; i >= 1; i-- {
		if err := os.Rename(snapshotRotation(path, i), snapshotRotation(path, i+1)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("ctrlplane: snapshot: rotating generation %d: %w", i, err)
		}
	}
	if err := os.Rename(path, snapshotRotation(path, 1)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ctrlplane: snapshot: rotating current snapshot: %w", err)
	}
	return SaveSnapshot(path, s)
}

// LoadSnapshotNewestLimit restores from a rotated snapshot set: it
// tries path, then path.1, path.2, … up to keep-1 generations back,
// and returns the first one that reads and verifies — a damaged or
// truncated newest file (a crash mid-rotation, a corrupted disk
// block) falls back to the older generation instead of forcing a
// cold start. The returned source names the file that won. Only when
// every present generation is damaged (or none exists) does it
// return the newest file's error, wrapped fs.ErrNotExist when no
// generation exists at all.
func LoadSnapshotNewestLimit(path string, maxTasks, keep int) (*Snapshot, string, error) {
	if keep < 1 {
		keep = 1
	}
	var firstErr error
	missing := 0
	for i := 0; i < keep; i++ {
		p := path
		if i > 0 {
			p = snapshotRotation(path, i)
		}
		snap, err := LoadSnapshotLimit(p, maxTasks)
		if err == nil {
			return snap, p, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			missing++
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if missing == keep {
		return nil, "", firstErr // no generation exists: a fresh deployment
	}
	return nil, "", fmt.Errorf("ctrlplane: snapshot: no valid generation under %s: %w", path, firstErr)
}

// LoadSnapshot reads and verifies the snapshot at path. A missing file
// surfaces as an fs.ErrNotExist-wrapped error (a fresh deployment, not
// damage); anything else unreadable or undecodable is an error the
// caller should log before starting fresh.
func LoadSnapshot(path string) (*Snapshot, error) {
	return LoadSnapshotLimit(path, 0)
}

// LoadSnapshotLimit is LoadSnapshot validating against an explicit
// lease-task bound (0 = DefaultMaxLeaseTasks) — pair it with the
// collector's SetMaxLeaseTasks configuration.
func LoadSnapshotLimit(path string, maxTasks int) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshotLimit(data, maxTasks)
}

// --- collector import/export ---------------------------------------

// export snapshots the collector's lease table and machine orders.
func (c *Collector) export() (nextID uint64, leases []LeaseRecord, orders map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictStaleLocked()
	leases = make([]LeaseRecord, 0, len(c.leases))
	for _, ls := range c.leases {
		leases = append(leases, LeaseRecord{Lease: ls.Lease, LastSeq: ls.lastSeq})
	}
	orders = make(map[string]int, len(c.machines))
	for name, ms := range c.machines {
		orders[name] = ms.order
	}
	return c.nextID, leases, orders
}

// restore replaces the collector's lease table and machine orders with
// snapshotted state. Restored leases are treated as freshly reporting
// (their staleness clock restarts now — the peers are expected to
// reconnect and resume), and their report buckets start full.
func (c *Collector) restore(nextID uint64, leases []LeaseRecord, orders map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if nextID > c.nextID {
		c.nextID = nextID
	}
	for _, lr := range leases {
		c.leases[lr.ID] = &leaseState{
			Lease:      lr.Lease,
			lastReport: now,
			lastSeq:    lr.LastSeq,
			bucket:     c.reportBurst,
			lastRefill: now,
		}
	}
	for name, order := range orders {
		ms := c.machineLocked(name)
		if order > ms.order {
			ms.order = order
		}
	}
}

// --- controller snapshot/restore ------------------------------------

// Snapshot captures the controller's durable state: the lease table
// and, per machine, the adoption epoch, latest adopted remap and the
// reconciler's drift baseline.
func (c *Controller) Snapshot() *Snapshot {
	nextID, leases, orders := c.col.export()
	s := &Snapshot{NextLeaseID: nextID, Leases: leases}
	type pending struct {
		idx int
		lp  *machineLoop
	}
	var fill []pending
	c.mu.Lock()
	for name, lp := range c.loops {
		mr := MachineRecord{Name: name, Order: orders[name], Epoch: lp.epoch}
		if lp.latest != nil {
			cp := *lp.latest
			cp.Assignment = cp.Assignment.Clone()
			mr.Latest = &cp
		}
		s.Machines = append(s.Machines, mr)
		fill = append(fill, pending{idx: len(s.Machines) - 1, lp: lp})
	}
	c.mu.Unlock()
	// The baseline lives behind the reconciler's own lock; fetch it
	// outside c.mu so a concurrent Epoch cannot deadlock us.
	for _, p := range fill {
		s.Machines[p.idx].Base = p.lp.rec.BaselineAffinity()
	}
	sort.Slice(s.Machines, func(i, j int) bool { return s.Machines[i].Name < s.Machines[j].Name })
	return s
}

// Restore rebuilds the controller from a snapshot: leases resume under
// their old IDs (so reconnecting clients' reports are refused with
// "unknown lease" only if they truly expired), machines resume at
// their snapshotted epoch, and machines whose snapshot carries both an
// adopted assignment and a baseline matrix come back primed — the next
// drift measurement compares against the restored baseline instead of
// re-priming from zero. Machines in the snapshot that the controller
// no longer hosts are skipped. Call before serving traffic.
func (c *Controller) Restore(s *Snapshot) error {
	if s == nil {
		return nil
	}
	orders := make(map[string]int, len(s.Machines))
	for _, mr := range s.Machines {
		orders[mr.Name] = mr.Order
	}
	c.col.restore(s.NextLeaseID, s.Leases, orders)
	for _, mr := range s.Machines {
		c.mu.Lock()
		lp, ok := c.loops[mr.Name]
		c.mu.Unlock()
		if !ok {
			continue
		}
		if mr.Latest != nil && mr.Latest.Assignment != nil && mr.Base != nil {
			if err := lp.rec.SetCurrentAffinity(mr.Latest.Assignment, mr.Base); err != nil {
				return fmt.Errorf("ctrlplane: restoring machine %q: %w", mr.Name, err)
			}
			lp.mu.Lock()
			lp.primed = true
			lp.mu.Unlock()
		}
		c.mu.Lock()
		lp.epoch = mr.Epoch
		if mr.Latest != nil {
			cp := *mr.Latest
			lp.latest = &cp
		}
		c.mu.Unlock()
	}
	return nil
}
