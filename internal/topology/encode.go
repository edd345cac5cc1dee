package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Render writes an lstopo-like indented description of the tree to w.
func (t *Topology) Render(w io.Writer) error {
	var walk func(o *Object, indent int) error
	walk = func(o *Object, indent int) error {
		pad := strings.Repeat("  ", indent)
		var attr string
		switch {
		case o.CacheSize > 0:
			attr = fmt.Sprintf(" (%s)", humanBytes(o.CacheSize))
		case o.Memory > 0 && o.Type == NUMANode:
			attr = fmt.Sprintf(" (%s)", humanBytes(o.Memory))
		}
		if _, err := fmt.Fprintf(w, "%s%s%s\n", pad, o, attr); err != nil {
			return err
		}
		for _, c := range o.Children {
			if err := walk(c, indent+1); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := fmt.Fprintf(w, "%s: %d cores, %d PUs, depth %d\n",
		t.Attrs.Name, t.NumCores(), t.NumPUs(), t.Depth()); err != nil {
		return err
	}
	return walk(t.Root, 0)
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// jsonObject mirrors Object for serialisation without parent cycles.
type jsonObject struct {
	Type      string       `json:"type"`
	OSIndex   int          `json:"os_index,omitempty"`
	CacheSize int64        `json:"cache_size,omitempty"`
	Memory    int64        `json:"memory,omitempty"`
	Children  []jsonObject `json:"children,omitempty"`
}

type jsonTopology struct {
	Attrs Attrs      `json:"attrs"`
	Root  jsonObject `json:"root"`
}

// MarshalJSON encodes the topology tree.
func (t *Topology) MarshalJSON() ([]byte, error) {
	var conv func(o *Object) jsonObject
	conv = func(o *Object) jsonObject {
		j := jsonObject{
			Type:      o.Type.String(),
			OSIndex:   o.OSIndex,
			CacheSize: o.CacheSize,
			Memory:    o.Memory,
		}
		for _, c := range o.Children {
			j.Children = append(j.Children, conv(c))
		}
		return j
	}
	return json.Marshal(jsonTopology{Attrs: t.Attrs, Root: conv(t.Root)})
}

// Clone returns a deep copy of the topology by round-tripping its
// canonical JSON encoding — exactly the copy a remote caller receives
// over the wire, so a clone fingerprints (placement.Signature)
// identically to the original and mutating it cannot reach the
// original's tree.
func (t *Topology) Clone() (*Topology, error) {
	data, err := t.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("topology: clone: %w", err)
	}
	return FromJSON(data)
}

// FromJSON decodes a topology previously produced by MarshalJSON.
func FromJSON(data []byte) (*Topology, error) {
	var jt jsonTopology
	if err := json.Unmarshal(data, &jt); err != nil {
		return nil, fmt.Errorf("topology: decode: %w", err)
	}
	typeByName := make(map[string]ObjectType, int(numObjectTypes))
	for i := ObjectType(0); i < numObjectTypes; i++ {
		typeByName[i.String()] = i
	}
	var conv func(j jsonObject) (*Object, error)
	conv = func(j jsonObject) (*Object, error) {
		typ, ok := typeByName[j.Type]
		if !ok {
			return nil, fmt.Errorf("topology: unknown object type %q", j.Type)
		}
		o := &Object{Type: typ, OSIndex: j.OSIndex, CacheSize: j.CacheSize, Memory: j.Memory}
		for _, jc := range j.Children {
			c, err := conv(jc)
			if err != nil {
				return nil, err
			}
			o.Children = append(o.Children, c)
		}
		return o, nil
	}
	root, err := conv(jt.Root)
	if err != nil {
		return nil, err
	}
	return New(root, jt.Attrs)
}
