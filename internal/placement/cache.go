package placement

import (
	"hash/fnv"
	"sync"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// cacheKey identifies one memoised mapping: the machine, the entity
// count, the strategy and, for TreeMatch only, the matrix and the
// canonical options. Two programs presenting the same communication
// pattern on the same machine share the entry.
type cacheKey struct {
	topo     uint64
	matrix   uint64
	entities int
	strategy string
	options  Options
}

// Signature fingerprints a topology by its canonical JSON encoding
// plus its name, so structurally identical machines (every call of
// topology.SMP12E5 builds a fresh tree) hash alike and a restricted
// machine hashes apart from its parent.
//
// A topology whose encoding fails (e.g. a NaN attribute) must not
// degrade to a name-only hash: two differently-broken machines with
// the same name would alias in the mapping cache and serve each
// other's assignments. The error is mixed into the hash behind a
// separator no healthy JSON encoding starts with — and because
// encoding/json's error text names the value, not where it sits, the
// tree structure is hashed too, so same-error machines with different
// shapes still fingerprint apart.
func Signature(top *topology.Topology) uint64 {
	h := fnv.New64a()
	h.Write([]byte(top.Attrs.Name))
	data, err := top.MarshalJSON()
	if err != nil {
		h.Write([]byte("\x00marshal-error\x00"))
		h.Write([]byte(err.Error()))
		var buf [8]byte
		put := func(v uint64) {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		var walk func(o *topology.Object)
		walk = func(o *topology.Object) {
			put(uint64(o.Type))
			put(uint64(int64(o.OSIndex)))
			put(uint64(int64(o.CacheSize)))
			put(uint64(int64(o.Memory)))
			put(uint64(len(o.Children)))
			for _, c := range o.Children {
				walk(c)
			}
		}
		walk(top.Root)
		return h.Sum64()
	}
	h.Write(data)
	return h.Sum64()
}

// cacheEntry is one memoised mapping. A TreeMatch entry is keyed by its
// matrix, so it also carries the quality diagnostics of its assignment
// over that matrix, measured on the first read (see quality).
type cacheEntry struct {
	a *Assignment

	diag            sync.Once
	cost, crossNUMA float64
}

// quality returns the TreeMatch cost and cross-NUMA volume of the
// entry's assignment over m; a failure reads as zeros, since the
// diagnostics never fail a call. A TreeMatch entry measures them once
// and serves every later read; an oblivious strategy's entry is shared
// across matrices, so it measures on every call.
func (c *cacheEntry) quality(top *topology.Topology, m comm.Affinity) (float64, float64) {
	measure := func() (float64, float64) {
		cost, cross, err := treematch.Quality(top, m, c.a.ComputePU)
		if err != nil {
			return 0, 0
		}
		return cost, cross
	}
	if c.a.Strategy != TreeMatch {
		return measure()
	}
	c.diag.Do(func() { c.cost, c.crossNUMA = measure() })
	return c.cost, c.crossNUMA
}
