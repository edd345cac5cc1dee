package lru

import (
	"slices"
	"testing"
)

// keys lists the cache's keys from the most recent to the oldest.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// TestCache runs one script of operations per case on a fresh cache
// and checks every Get's answer, then the keys from the most recent to
// the oldest, and Len.
func TestCache(t *testing.T) {
	type op struct {
		do   string // "put", "get" or "remove"
		k, v int
		hit  bool // a get's expected presence; v is then its value
	}
	put := func(k, v int) op { return op{do: "put", k: k, v: v} }
	get := func(k, v int, hit bool) op { return op{do: "get", k: k, v: v, hit: hit} }
	remove := func(k int) op { return op{do: "remove", k: k} }
	cases := []struct {
		name string
		max  int
		ops  []op
		want []int
	}{
		{"empty", 3, nil, nil},
		{"puts keep insertion recency", 3, []op{put(1, 10), put(2, 20), put(3, 30)}, []int{3, 2, 1}},
		{"get promotes", 3, []op{put(1, 10), put(2, 20), put(3, 30), get(1, 10, true)}, []int{1, 3, 2}},
		{"get of a missing key", 3, []op{put(1, 10), get(2, 0, false)}, []int{1}},
		{"put replaces and promotes", 3, []op{put(1, 10), put(2, 20), put(1, 11), get(1, 11, true)}, []int{1, 2}},
		{"eviction drops the oldest", 3, []op{put(1, 10), put(2, 20), put(3, 30), put(4, 40), get(1, 0, false)}, []int{4, 3, 2}},
		{"a promoted key survives eviction", 3, []op{put(1, 10), put(2, 20), put(3, 30), get(1, 10, true), put(4, 40), get(2, 0, false), get(1, 10, true)}, []int{1, 4, 3}},
		{"a replaced key survives eviction", 2, []op{put(1, 10), put(2, 20), put(1, 12), put(3, 30)}, []int{3, 1}},
		{"remove", 3, []op{put(1, 10), put(2, 20), put(3, 30), remove(2), get(2, 0, false)}, []int{3, 1}},
		{"remove of a missing key", 3, []op{put(1, 10), remove(2)}, []int{1}},
		{"remove frees a slot", 2, []op{put(1, 10), put(2, 20), remove(1), put(3, 30), get(2, 20, true)}, []int{2, 3}},
		{"max one", 1, []op{put(1, 10), put(2, 20), get(1, 0, false), get(2, 20, true)}, []int{2}},
		{"max zero stores nothing", 0, []op{put(1, 10), get(1, 0, false)}, nil},
		{"negative max stores nothing", -1, []op{put(1, 10), get(1, 0, false)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int, int](tc.max)
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					c.Put(o.k, o.v)
				case "remove":
					c.Remove(o.k)
				case "get":
					if v, ok := c.Get(o.k); ok != o.hit || v != o.v {
						t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", i, o.k, v, ok, o.v, o.hit)
					}
				}
			}
			if got := keys(c); !slices.Equal(got, tc.want) {
				t.Fatalf("keys from the most recent = %v, want %v", got, tc.want)
			}
			if c.Len() != len(tc.want) {
				t.Fatalf("Len() = %d, want %d", c.Len(), len(tc.want))
			}
		})
	}
}

// TestCacheFullPutAllocatesNothing: a full cache reuses the evicted
// entry, so a steady stream of new keys allocates no entry.
func TestCacheFullPutAllocatesNothing(t *testing.T) {
	c := New[int, *int](256)
	v := new(int)
	k := 0
	for ; k < 1024; k++ { // fill, then churn past the first evictions
		c.Put(k, v)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Put(k, v); k++ }); allocs != 0 {
		t.Fatalf("a Put into a full cache allocates %.0f times, want 0", allocs)
	}
}
