package main

import (
	"math/rand"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
)

// Seeded input generators. Everything the program under test receives
// is made here from the run's seed; the same seed gives the same
// inputs, and each consumer draws from its own stream so adding a draw
// in one place does not shift another's inputs.

// Input streams derived from the run's seed.
const (
	streamPool  = 1 // + caller index: cold-clustered base pools
	streamShift = 8 // + peer index: fleet shift permutations
)

func newRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

const (
	clusterSize = 8
	// Place workloads: about 1 MiB inside a cluster, 1 KiB on the ring
	// that links consecutive clusters.
	intraVolume = 1 << 20
	ringVolume  = 1 << 10
	// Fleet workloads: every Traffic.Record call moves about 16 MiB. With
	// 4096-byte records (or the default horizon) the modeled gain never
	// covers the migration cost and every shift is rejected.
	recordBytes = 16 << 20
	// jitterBytes bounds what a pair's byte count varies by. Measured
	// traffic is never the same round number on every pair, and
	// comm.Fingerprint — the identity the mapping cache keys on — tells
	// matrices whose entries are all one power of two apart by a dozen
	// bits only: with exact 16 MiB records one shift window in eleven is
	// served another window's cached mapping (see README, Findings).
	jitterBytes = 1 << 16
)

// jitter is a pair's deviation from the nominal byte count: fixed for a
// (from, to, salt), below jitterBytes.
func jitter(from, to int, salt uint32) int {
	h := (uint32(from)*0x9E3779B1 ^ uint32(to)*0x85EBCA77 ^ salt) * 0xC2B2AE3D
	return int(h>>8) % jitterBytes
}

// clusters is a grouping of task ids into clusters of clusterSize —
// cluster c is members[c*clusterSize : (c+1)*clusterSize] — plus the
// salt that fixes every pair's byte count.
type clusters struct {
	members []int
	salt    uint32
}

// identityClusters groups tasks [0, n) in index order.
func identityClusters(n int) *clusters {
	cl := &clusters{members: make([]int, n)}
	for i := range cl.members {
		cl.members[i] = i
	}
	return cl
}

// reshuffleHead re-clusters tasks [0, head) among themselves by a fresh
// permutation, with fresh byte counts, and leaves the clusters of
// [head, n) as they are; head must be a multiple of clusterSize and
// members[:head] a permutation of [0, head).
func (cl *clusters) reshuffleHead(rng *rand.Rand, head int) {
	copy(cl.members[:head], rng.Perm(head))
	cl.salt = rng.Uint32()
}

// forEachPair visits every ordered intra-cluster pair with the bytes a
// window moves over it.
func (cl *clusters) forEachPair(fn func(from, to, bytes int)) {
	for c := 0; c+clusterSize <= len(cl.members); c += clusterSize {
		group := cl.members[c : c+clusterSize]
		for _, a := range group {
			for _, b := range group {
				if a != b {
					fn(a, b, recordBytes+jitter(a, b, cl.salt))
				}
			}
		}
	}
}

// pairs is the number of ordered intra-cluster pairs: the Record calls
// one window makes.
func (cl *clusters) pairs() int {
	return len(cl.members) / clusterSize * clusterSize * (clusterSize - 1)
}

// record plays one window of the cluster pattern into a program's
// traffic recorder, as its tasks would.
func (cl *clusters) record(tr *orwl.Traffic) {
	cl.forEachPair(func(from, to, bytes int) { tr.Record(from, to, bytes) })
}

// window is the observed window record produces, generated directly:
// what the twin controller is fed.
func (cl *clusters) window() *comm.Sparse {
	w := comm.NewSparse(len(cl.members))
	cl.addTo(w, 0)
	return w
}

// addTo adds the window at the lease's offset in a machine-wide
// affinity.
func (cl *clusters) addTo(dst comm.Affinity, base int) {
	cl.forEachPair(func(from, to, bytes int) { dst.Add(base+from, base+to, float64(bytes)) })
}

// clusteredMatrix is one cold-clustered base matrix: n tasks permuted
// into clusters of clusterSize with heavy volume on every intra-cluster
// pair and a light ring linking consecutive clusters.
type clusteredMatrix struct {
	m       *comm.Matrix
	members []int
	uses    int
}

func newClusteredMatrix(rng *rand.Rand, n int) *clusteredMatrix {
	members := rng.Perm(n)
	salt := rng.Uint32()
	m := comm.NewMatrix(n)
	for c := 0; c < n; c += clusterSize {
		group := members[c : c+clusterSize]
		for i, a := range group {
			for _, b := range group[i+1:] {
				m.AddSym(a, b, float64(intraVolume+jitter(min(a, b), max(a, b), salt)))
			}
		}
		next := members[(c+clusterSize)%n]
		m.AddSym(group[clusterSize-1], next, ringVolume)
	}
	return &clusteredMatrix{m: m, members: members}
}

// perturb makes the matrix one the daemon has never seen: one
// intra-cluster pair's volume moves by the use count, so the
// fingerprint is new while the cluster structure (and the best mapping)
// stays.
func (c *clusteredMatrix) perturb() {
	c.uses++
	k := len(c.members) / clusterSize
	g := (c.uses % k) * clusterSize
	a, b := c.members[g], c.members[g+1]
	v := c.m.At(a, b) + float64(c.uses)
	c.m.Set(a, b, v)
	c.m.Set(b, a, v)
}

// coldSizes are the task counts of the cold-clustered pool; coldMachines
// alternate with the pool index.
var (
	coldSizes    = []int{64, 96, 160}
	coldMachines = []string{"smp12e5", "smp20e7"}
)

// coldPoolSize is each caller's pool of base matrices. With two callers
// the daemon sees 512 distinct cluster structures cycling through a
// 256-entry mapping cache — and every use is perturbed anyway.
const coldPoolSize = 256

type coldEntry struct {
	*clusteredMatrix
	machine string
}

func newColdPool(seed int64, caller int) []coldEntry {
	rng := newRNG(seed, streamPool+caller)
	pool := make([]coldEntry, coldPoolSize)
	for i := range pool {
		pool[i] = coldEntry{
			clusteredMatrix: newClusteredMatrix(rng, coldSizes[i%len(coldSizes)]),
			machine:         coldMachines[i%len(coldMachines)],
		}
	}
	return pool
}
