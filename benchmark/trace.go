package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; spans inside the program are a later change. One
// trace is one operation (a placement call or a fleet cycle): its spans
// share the trace id, and a span's parent is the span that caused it.

// span is one timed interval at a layer boundary.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Trace    int    `json:"trace"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
}

func (s span) durUS() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// maxKeptTraces bounds the spans kept for the trace file: aggregates
// cover every traced operation, the file keeps the first traces so a
// 40k calls/s workload does not write a gigabyte.
const maxKeptTraces = 2048

// tracer keeps spans in memory; one tracer belongs to one goroutine
// (lane keeps ids of concurrent tracers apart in the shared trace
// file). A nil tracer records nothing, so the untraced pass runs the
// same code.
type tracer struct {
	workload string
	lane     int
	t0       time.Time
	nextID   int
	trace    int
	spans    []span               // the kept traces, for the file
	byName   map[string][]float64 // every span's duration (us), by name
}

// maxLanes bounds the tracers writing into one trace file.
const maxLanes = 16

// newTracer makes the tracer of one goroutine; tracers sharing a trace
// file share t0.
func newTracer(workload string, lane int, t0 time.Time) *tracer {
	return &tracer{workload: workload, lane: lane, t0: t0, byName: map[string][]float64{}}
}

// newTrace starts the next operation's trace.
func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
	}
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id, parent  int
	layer, name string
	start       time.Time
}

// begin opens a span under parent (the zero openSpan = root) in the
// current trace; end closes it.
func (t *tracer) begin(parent openSpan, layer, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.nextID++
	return openSpan{id: t.nextID*maxLanes + t.lane, parent: parent.id, layer: layer, name: name, start: time.Now()}
}

func (t *tracer) end(o openSpan) {
	if t == nil {
		return
	}
	now := time.Now()
	s := span{
		ID: o.id, Parent: o.parent, Trace: t.trace*maxLanes + t.lane, Name: o.name, Layer: o.layer, Workload: t.workload,
		StartNS: o.start.Sub(t.t0).Nanoseconds(), EndNS: now.Sub(t.t0).Nanoseconds(),
	}
	t.byName[o.name] = append(t.byName[o.name], s.durUS())
	if t.trace <= maxKeptTraces {
		t.spans = append(t.spans, s)
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(parent openSpan, layer, name string, fn func()) {
	o := t.begin(parent, layer, name)
	fn()
	t.end(o)
}

// observe records a count taken at a span boundary under a name of its
// own, so ratios are measured where the work happens.
func (t *tracer) observe(name string, v float64) {
	if t != nil {
		t.byName[name] = append(t.byName[name], v)
	}
}

// values returns everything recorded under a name: the durations (us) of
// a span, or the observations of a count.
func (t *tracer) values(name string) []float64 {
	if t == nil {
		return nil
	}
	return t.byName[name]
}

// p50 is the median duration (us) of the named span, 0 when it never
// ran.
func (t *tracer) p50(name string) float64 { return median(t.values(name)) }

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its direct children cover. Children may overlap each
// other or stick out of the parent: the covered part is the union of
// the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		var covered int64
		cursor := s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// unattributedShare is the self time of the root spans named root as a
// share of their duration: how much of the operation the child spans do
// not explain.
func unattributedShare(spans []span, root string) float64 {
	self := selfTimes(spans)
	var selfNS, durNS int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			selfNS += self[s.ID]
			durNS += s.EndNS - s.StartNS
		}
	}
	if durNS == 0 {
		return 0
	}
	return float64(selfNS) / float64(durNS)
}

// writeTrace writes the kept spans of all tracers as one JSON array.
func writeTrace(path string, tracers ...*tracer) error {
	var all []span
	for _, t := range tracers {
		if t != nil {
			all = append(all, t.spans...)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
