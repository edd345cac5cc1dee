package placement

import (
	"container/list"
	"hash/fnv"

	"orwlplace/internal/topology"
)

// cacheKey identifies one memoised mapping: the machine, the entity
// count, the strategy and, for TreeMatch only, the matrix and the
// options. Two programs presenting the same communication pattern on
// the same machine share the entry.
type cacheKey struct {
	topo     uint64
	matrix   uint64
	entities int
	strategy string
	options  uint64
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

// optionsFingerprint hashes the mapping options that change the
// result, canonicalised so default-equivalent configurations share a
// cache entry.
func optionsFingerprint(opt Options) uint64 {
	opt = opt.Canonical()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	flags := uint64(0)
	if opt.ControlThreads {
		flags = 1
	}
	put(flags)
	put(uint64(int64(opt.PartitionThreshold)))
	return h.Sum64()
}

// mappingCache is a small LRU of computed assignments. A max of zero
// (or less) disables caching entirely.
type mappingCache struct {
	max     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	a   *Assignment
}

func newMappingCache(max int) *mappingCache {
	return &mappingCache{max: max, order: list.New(), entries: make(map[cacheKey]*list.Element)}
}

func (c *mappingCache) get(k cacheKey) (*Assignment, bool) {
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).a, true
}

func (c *mappingCache) put(k cacheKey, a *Assignment) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).a = a
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, a: a})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

func (c *mappingCache) len() int { return c.order.Len() }
