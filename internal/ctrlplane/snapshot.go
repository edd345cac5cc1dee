package ctrlplane

// Control-plane durability: the controller's state as a file it
// writes atomically and restores on startup, so a restarted daemon
// resumes at its last snapshotted epoch instead of re-priming from
// zero.
//
//	magic "ORWLSNAP" | version byte | payload | CRC32-IEEE (big endian)
//
// The checksum covers magic, version and payload, so truncation and
// bit flips are both caught. The payload is built from internal/codec
// fields, the ones the placement wire is built from (layout below): an
// adopted assignment is the wire's assignment plus its partition list,
// and a drift baseline is the wire's matrix field, so a restored
// reconciler measures drift against the matrix its adopted mapping was
// computed from. There is one version; any other version byte, like a
// checksum failure, decodes to an error — the daemon logs it and
// starts fresh rather than crashing or trusting damaged state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

const (
	// snapshotMagic identifies a control-plane snapshot file.
	snapshotMagic = "ORWLSNAP"
	// SnapshotVersion is the one snapshot format. A format change bumps
	// it and replaces the layout.
	SnapshotVersion = 5
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
	// reconciler. The file carries it as a matrix field, which decodes
	// sparse.
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

// --- codec ----------------------------------------------------------
//
// Payload layout, field by field (u: codec.PutUvarint, s:
// codec.PutString, ints: codec.PutIntSlice):
//
//	u next lease id, u lease count, then per lease:
//	    s machine, s peer, u task base, u task count, u token (a lease
//	    request's fields), u id, u last seq
//	u machine count, then per machine:
//	    s name, u order, u epoch,
//	    assignment (codec.PutAssignment; absent before the first adoption),
//	    when present: u drift (codec.ZigzagFloat, as a remap frame), partition list,
//	    baseline (codec.PutMatrixField; absent before the first adoption)
//	partition list: u count (0 for none), then per partition:
//	    u depth, u object, ints tasks

// getCount reads a record count and refuses one the bytes left cannot
// hold, at the least bytes of the smallest record, before anything is
// sized by it.
func getCount(src []byte, least int, what string) (int, []byte, error) {
	n, rest, err := codec.GetUvarint(src)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)/least) {
		return 0, nil, fmt.Errorf("ctrlplane: snapshot: %d %s overrun the %d bytes left", n, what, len(rest))
	}
	return int(n), rest, nil
}

func putPartitions(dst []byte, p *treematch.Partitioning) []byte {
	if p == nil {
		return codec.PutUvarint(dst, 0)
	}
	dst = codec.PutUvarint(dst, uint64(len(p.Parts)))
	for _, part := range p.Parts {
		dst = codec.PutUvarint(dst, uint64(part.Depth))
		dst = codec.PutUvarint(dst, uint64(part.Object))
		dst = codec.PutIntSlice(dst, part.Tasks)
	}
	return dst
}

// getPartitions decodes a partition list; an empty one is no
// partitioning, as placement reads it.
func getPartitions(src []byte) (*treematch.Partitioning, []byte, error) {
	n, rest, err := getCount(src, 3, "partitions") // depth, object, nil task list
	if err != nil || n == 0 {
		return nil, rest, err
	}
	p := &treematch.Partitioning{Parts: make([]treematch.Partition, n)}
	for i := range p.Parts {
		var depth, object uint64
		if rest, err = codec.GetUvarints(rest, &depth, &object); err != nil {
			return nil, nil, err
		}
		part := &p.Parts[i]
		part.Depth, part.Object = int(depth), int(object)
		if part.Tasks, rest, err = codec.GetIntSlice(rest); err != nil {
			return nil, nil, err
		}
	}
	return p, rest, nil
}

// EncodeSnapshot serialises s in the SnapshotVersion format. The
// output is deterministic: leases sort by ID, machines by name. A name
// too long for its string field, or a baseline of more than
// codec.MaxMatrixCells nonzeros (a *codec.CellsError), refuses the
// whole image: SaveSnapshot then writes nothing.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("ctrlplane: nil snapshot")
	}
	leases := append([]LeaseRecord(nil), s.Leases...)
	sort.Slice(leases, func(i, j int) bool { return leases[i].ID < leases[j].ID })
	machines := append([]MachineRecord(nil), s.Machines...)
	sort.Slice(machines, func(i, j int) bool { return machines[i].Name < machines[j].Name })

	dst := append([]byte(snapshotMagic), SnapshotVersion)
	dst = codec.PutUvarint(dst, s.NextLeaseID)
	dst = codec.PutUvarint(dst, uint64(len(leases)))
	for _, lr := range leases {
		if err := codec.CheckStrings(lr.Machine, lr.Peer); err != nil {
			return nil, fmt.Errorf("ctrlplane: snapshot: lease %d: %w", lr.ID, err)
		}
		dst = codec.PutString(dst, lr.Machine)
		dst = codec.PutString(dst, lr.Peer)
		dst = codec.PutUvarint(dst, uint64(lr.TaskBase))
		dst = codec.PutUvarint(dst, uint64(lr.TaskCount))
		dst = codec.PutUvarint(dst, lr.Token)
		dst = codec.PutUvarint(dst, lr.ID)
		dst = codec.PutUvarint(dst, lr.LastSeq)
	}
	dst = codec.PutUvarint(dst, uint64(len(machines)))
	for _, mr := range machines {
		var latest *placement.Assignment
		if mr.Latest != nil {
			latest = mr.Latest.Assignment
		}
		if err := codec.CheckStrings(mr.Name); err != nil {
			return nil, fmt.Errorf("ctrlplane: snapshot: machine name: %w", err)
		}
		dst = codec.PutString(dst, mr.Name)
		dst = codec.PutUvarint(dst, uint64(mr.Order))
		dst = codec.PutUvarint(dst, mr.Epoch)
		dst = codec.PutAssignment(dst, latest)
		if latest != nil {
			dst = codec.PutUvarint(dst, codec.ZigzagFloat(mr.Latest.Drift))
			dst = putPartitions(dst, latest.Partitions)
		}
		var err error
		if dst, _, err = codec.PutMatrixField(dst, mr.Base); err != nil {
			return nil, fmt.Errorf("ctrlplane: snapshot: machine %q baseline: %w", mr.Name, err)
		}
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst)), nil
}

// SnapshotFileInfo checks the container of a snapshot image — its
// length, magic and checksum — and returns its version byte without
// decoding the payload. DecodeSnapshotLimit starts with it; inspection
// tooling uses it to tell "damaged file" apart from "valid file the
// current bounds reject".
func SnapshotFileInfo(data []byte) (version int, crcOK bool, err error) {
	if len(data) < len(snapshotMagic)+1+4 {
		return 0, false, fmt.Errorf("ctrlplane: snapshot: %d bytes is too short to be a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return 0, false, fmt.Errorf("ctrlplane: snapshot: bad magic (not a control-plane snapshot)")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	return int(data[len(snapshotMagic)]), crc32.ChecksumIEEE(body) == sum, nil
}

// DecodeSnapshotLimit parses and verifies a snapshot file image. Damage
// of any kind — bad magic, unknown version, checksum mismatch,
// truncation — is an error; the caller is expected to log it and start
// fresh. maxTasks is the lease-task bound (0 = DefaultMaxLeaseTasks):
// lease ranges, machine orders and baseline orders beyond it are
// rejected. A daemon running with a raised -max-lease-tasks must
// decode with the same bound it registers with, or its own snapshots
// would fail to restore.
func DecodeSnapshotLimit(data []byte, maxTasks int) (*Snapshot, error) {
	if maxTasks <= 0 {
		maxTasks = DefaultMaxLeaseTasks
	}
	version, crcOK, err := SnapshotFileInfo(data)
	switch {
	case err != nil:
		return nil, err
	case !crcOK:
		return nil, fmt.Errorf("ctrlplane: snapshot: checksum mismatch — file damaged")
	case version != SnapshotVersion:
		return nil, fmt.Errorf("ctrlplane: snapshot: unsupported version %d (this daemon reads %d)", version, SnapshotVersion)
	}
	rest := data[len(snapshotMagic)+1 : len(data)-4]

	s := &Snapshot{}
	if s.NextLeaseID, rest, err = codec.GetUvarint(rest); err != nil {
		return nil, err
	}
	var n int
	if n, rest, err = getCount(rest, 9, "leases"); err != nil { // two empty strings, five varints
		return nil, err
	}
	s.Leases = make([]LeaseRecord, n)
	for i := range s.Leases {
		lr := &s.Leases[i]
		if lr.Machine, rest, err = codec.GetString(rest); err != nil {
			return nil, err
		}
		if lr.Peer, rest, err = codec.GetString(rest); err != nil {
			return nil, err
		}
		var base, count uint64
		if rest, err = codec.GetUvarints(rest, &base, &count, &lr.Token, &lr.ID, &lr.LastSeq); err != nil {
			return nil, err
		}
		if count == 0 || base > uint64(maxTasks) || count > uint64(maxTasks)-base {
			return nil, fmt.Errorf("ctrlplane: snapshot: lease %d range [%d,+%d) out of bounds (max %d tasks)", lr.ID, base, count, maxTasks)
		}
		lr.TaskBase, lr.TaskCount = int(base), int(count)
	}
	if n, rest, err = getCount(rest, 6, "machines"); err != nil { // empty name, two varints, absent assignment and baseline
		return nil, err
	}
	s.Machines = make([]MachineRecord, n)
	for i := range s.Machines {
		mr := &s.Machines[i]
		if mr.Name, rest, err = codec.GetString(rest); err != nil {
			return nil, err
		}
		var order uint64
		if rest, err = codec.GetUvarints(rest, &order, &mr.Epoch); err != nil {
			return nil, err
		}
		if order > uint64(maxTasks) {
			return nil, fmt.Errorf("ctrlplane: snapshot: machine %q order %d out of bounds (max %d tasks)", mr.Name, order, maxTasks)
		}
		mr.Order = int(order)
		var a *placement.Assignment
		if a, rest, err = codec.GetAssignment(rest, nil); err != nil {
			return nil, err
		}
		if a != nil {
			var drift uint64
			if drift, rest, err = codec.GetUvarint(rest); err != nil {
				return nil, err
			}
			mr.Latest = &Remap{Machine: mr.Name, Epoch: mr.Epoch, Drift: codec.UnzigzagFloat(drift), Assignment: a}
			if a.Partitions, rest, err = getPartitions(rest); err != nil {
				return nil, err
			}
		}
		var base *comm.Sparse
		if base, _, rest, err = codec.GetMatrixField(rest, maxTasks, nil); err != nil {
			return nil, err
		}
		if base != nil { // a nil *comm.Sparse in the interface would not read as absent
			mr.Base = base
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ctrlplane: snapshot: %d trailing bytes after the last record", len(rest))
	}
	return s, nil
}

// SaveSnapshot writes s to path atomically (temp file in the same
// directory, fsync, rename), so a crash mid-write leaves the previous
// snapshot intact. With keep > 1 the existing generations first shift
// down one slot (path → path.1 → … → path.(keep-1), the oldest falling
// off), so the last keep snapshots survive. Rotation is a chain of
// renames oldest-first, so a crash at any point leaves every surviving
// generation intact (at worst the newest state lives in path.1 until
// the next save).
func SaveSnapshot(path string, s *Snapshot, keep int) error {
	data, err := EncodeSnapshot(s)
	if err != nil {
		return err
	}
	for i := keep - 1; i >= 1; i-- {
		if err := os.Rename(snapshotRotation(path, i-1), snapshotRotation(path, i)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("ctrlplane: snapshot: rotating generation %d: %w", i-1, err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("ctrlplane: snapshot: %w", err)
	}
	return nil
}

// snapshotRotation names generation i of path: path itself, then
// path.1 (the previous snapshot), path.2 and so on.
func snapshotRotation(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

// LoadSnapshot restores from a rotated snapshot set, decoding under the
// lease-task bound maxTasks (0 = DefaultMaxLeaseTasks; pair it with the
// collector's SetMaxLeaseTasks): it tries path, then path.1, path.2, …
// up to keep-1 generations back (keep < 1 reads path alone), and
// returns the first one that reads and verifies with the file it came
// from — a damaged newest file (a crash mid-rotation, a corrupted disk
// block) falls back to the older generation instead of forcing a cold
// start. When no generation exists the error wraps fs.ErrNotExist (a
// fresh deployment, not damage); when every present one is damaged it
// carries the newest file's failure.
func LoadSnapshot(path string, maxTasks, keep int) (*Snapshot, string, error) {
	keep = max(keep, 1)
	var firstErr error
	missing := 0
	for i := 0; i < keep; i++ {
		p := snapshotRotation(path, i)
		data, err := os.ReadFile(p)
		if err == nil {
			var snap *Snapshot
			if snap, err = DecodeSnapshotLimit(data, maxTasks); err == nil {
				return snap, p, nil
			}
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
func (c *Collector) restore(s *Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.nextID = max(c.nextID, s.NextLeaseID)
	for _, lr := range s.Leases {
		c.leases[lr.ID] = &leaseState{
			Lease:      lr.Lease,
			lastReport: now,
			lastSeq:    lr.LastSeq,
			bucket:     c.reportBurst,
			lastRefill: now,
		}
	}
	for _, mr := range s.Machines {
		ms := c.machineLocked(mr.Name)
		ms.order = max(ms.order, mr.Order)
	}
}

// --- controller snapshot/restore ------------------------------------

// Snapshot captures the controller's durable state: the lease table
// and, per machine, the adoption epoch, latest adopted remap and the
// reconciler's drift baseline.
func (c *Controller) Snapshot() *Snapshot {
	nextID, leases, orders := c.col.export()
	s := &Snapshot{NextLeaseID: nextID, Leases: leases}
	var loops []*machineLoop
	c.mu.Lock()
	for name, lp := range c.loops {
		s.Machines = append(s.Machines, MachineRecord{Name: name, Order: orders[name], Epoch: lp.epoch, Latest: lp.latest})
		loops = append(loops, lp)
	}
	c.mu.Unlock()
	// The baseline lives behind the reconciler's own lock; fetch it
	// outside c.mu so a concurrent Epoch cannot deadlock us.
	for i, lp := range loops {
		s.Machines[i].Base = lp.rec.BaselineAffinity()
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
	c.col.restore(s)
	for _, mr := range s.Machines {
		c.mu.Lock()
		lp, ok := c.loops[mr.Name]
		c.mu.Unlock()
		if !ok {
			continue
		}
		if mr.Latest != nil && mr.Latest.Assignment != nil && mr.Base != nil {
			if err := lp.rec.SetCurrent(mr.Latest.Assignment, mr.Base); err != nil {
				return fmt.Errorf("ctrlplane: restoring machine %q: %w", mr.Name, err)
			}
			lp.mu.Lock()
			lp.order = mr.Base.Order()
			lp.mu.Unlock()
		}
		c.mu.Lock()
		lp.epoch = mr.Epoch
		if mr.Latest != nil {
			lp.latest = mr.Latest
		}
		c.mu.Unlock()
	}
	return nil
}
