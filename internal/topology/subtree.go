package topology

import "fmt"

// Subtree returns a standalone topology whose root is a deep copy of
// the given object of top, with all machine attributes preserved. The
// partitioned mapper uses it to run TreeMatch against one branch of a
// machine (a NUMA node, a socket) as if it were a whole machine: the
// subtree's PUs keep their OS indexes, and because logical indexes are
// assigned depth-first, the subtree's local logical index k corresponds
// to global logical index base+k where base is the first PU (or core)
// of the branch — which is what makes stitching per-partition mappings
// back into machine-global bindings a constant-offset translation.
//
// A topology is immutable, so the subtree is too: it is built on the
// first call for obj and memoised on top, and every later call returns
// the same *Topology. The memo holds at most one subtree per object of
// top; an object of another tree is refused. Safe for concurrent use.
func Subtree(top *Topology, obj *Object) (*Topology, error) {
	if top == nil || obj == nil {
		return nil, fmt.Errorf("topology: subtree of nil")
	}
	if objs := top.Objects(obj.Type); obj.LogicalIndex < 0 || obj.LogicalIndex >= len(objs) || objs[obj.LogicalIndex] != obj {
		return nil, fmt.Errorf("topology: subtree %s is not an object of %s", obj, top.Attrs.Name)
	}
	if sub, ok := top.subtrees.Load(obj); ok {
		return sub.(*Topology), nil
	}
	var clone func(o *Object) *Object
	clone = func(o *Object) *Object {
		c := &Object{
			Type:      o.Type,
			OSIndex:   o.OSIndex,
			CacheSize: o.CacheSize,
			Memory:    o.Memory,
		}
		for _, child := range o.Children {
			c.Children = append(c.Children, clone(child))
		}
		return c
	}
	attrs := top.Attrs
	attrs.Name = fmt.Sprintf("%s/%s", top.Attrs.Name, obj)
	sub, err := New(clone(obj), attrs)
	if err != nil {
		return nil, fmt.Errorf("topology: subtree %s: %w", obj, err)
	}
	// Concurrent first calls may each build one; all get the first stored.
	stored, _ := top.subtrees.LoadOrStore(obj, sub)
	return stored.(*Topology), nil
}
