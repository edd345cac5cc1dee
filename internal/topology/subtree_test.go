package topology

import (
	"sync"
	"testing"
)

// TestSubtreeMemo: Subtree returns one *Topology per object of top, the
// same from concurrent first calls (run it under -race); the memo holds
// at most one entry per object; a subtree equals a fresh copy's shape;
// and an object of another tree is refused.
func TestSubtreeMemo(t *testing.T) {
	top := Fleet1K()
	var objs []*Object
	for typ := Machine; typ < numObjectTypes; typ++ {
		objs = append(objs, top.Objects(typ)...)
	}
	got := make([][]*Topology, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range objs {
				sub, err := Subtree(top, o)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], sub)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, o := range objs {
			if got[g][i] != got[0][i] {
				t.Fatalf("Subtree(%s) returned two topologies", o)
			}
		}
	}
	entries := 0
	top.subtrees.Range(func(_, _ any) bool { entries++; return true })
	if entries != len(objs) {
		t.Fatalf("memo holds %d subtrees for %d objects", entries, len(objs))
	}

	fresh := Fleet1K()
	node := fresh.Objects(NUMANode)[5]
	want, err := Subtree(fresh, node)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subtree(top, top.Objects(NUMANode)[5])
	if err != nil {
		t.Fatal(err)
	}
	subJSON, err := sub.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(subJSON) != string(wantJSON) {
		t.Fatalf("memoised subtree %s differs from a fresh one", sub.Attrs.Name)
	}
	if _, err := Subtree(top, node); err == nil {
		t.Fatal("Subtree accepted an object of another topology")
	}
}
