// Package lru is the bounded least-recently-used map behind every
// fingerprint memo of the module: the engine's mapping cache, the
// daemon's seen-matrix table and the client's known-fingerprint set.
// A Cache is not safe for concurrent use; each user guards it with its
// own lock.
package lru

// Cache maps keys to values, holding at most max of them: a Put over
// the bound evicts the least recently used entry. A max of zero or
// less stores nothing.
type Cache[K comparable, V any] struct {
	max  int
	m    map[K]*entry[K, V]
	root entry[K, V] // sentinel of the recency ring: root.next is the newest entry, root.prev the oldest
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns an empty cache of at most max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	c := &Cache[K, V]{max: max, m: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and makes it the newest entry.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	e, ok := c.m[k]
	if ok {
		c.toFront(e)
		v = e.val
	}
	return v, ok
}

// Put stores v under k as the newest entry, replacing any value k
// held; a new key in a full cache takes over the oldest entry.
func (c *Cache[K, V]) Put(k K, v V) {
	if c.max <= 0 {
		return
	}
	e, ok := c.m[k]
	if !ok {
		if len(c.m) < c.max {
			e = new(entry[K, V])
			e.prev, e.next = e, e // a ring of its own, for toFront to unlink
		} else {
			e = c.root.prev
			delete(c.m, e.key)
		}
		e.key = k
		c.m[k] = e
	}
	e.val = v
	c.toFront(e)
}

// Remove drops k's entry, if there is one.
func (c *Cache[K, V]) Remove(k K) {
	if e, ok := c.m[k]; ok {
		e.prev.next, e.next.prev = e.next, e.prev
		delete(c.m, k)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.m) }

// toFront unlinks e and relinks it as the newest entry.
func (c *Cache[K, V]) toFront(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}
