package experiments

import (
	"fmt"

	"orwlplace/internal/apps/tracking"
	"orwlplace/internal/comm"
	"orwlplace/internal/core"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// Fig1 regenerates the communication matrix of the 30-task video
// tracking application (the paper renders it on a logarithmic gray
// scale). The returned matrix is the one the ORWL runtime derives at
// schedule time; the string is the text raster.
func Fig1() (*comm.Matrix, string, error) {
	cfg := tracking.PaperConfig(tracking.HD)
	m, err := cfg.CommMatrix()
	if err != nil {
		return nil, "", err
	}
	text := "Fig. 1 — communication matrix of the video tracking application\n" +
		m.RenderGrayScale()
	return m, text, nil
}

// Fig2 regenerates the task allocation of the tracking application on
// the 4-socket, 32-core machine: Algorithm 1 maps the 30 tasks and
// reserves the spare cores for control threads.
func Fig2() (*treematch.Mapping, string, error) {
	cfg := tracking.PaperConfig(tracking.HD)
	m, err := cfg.CommMatrix()
	if err != nil {
		return nil, "", err
	}
	eng := engineFor(topology.Fig2Machine())
	a, _, err := eng.ComputeHinted(placement.TreeMatch, m, 0, 0, placement.Options{ControlThreads: true})
	if err != nil {
		return nil, "", err
	}
	mapping := a.Mapping(eng.Topology())
	text := "Fig. 2 — " + core.RenderMapping(mapping, cfg.TaskNames())
	return mapping, text, nil
}

// Fig3 renders the data-flow graph of the video tracking application
// (Fig. 3 of the paper).
func Fig3() string {
	return "Fig. 3 — " + tracking.PaperConfig(tracking.HD).RenderDFG()
}

// TableI renders the characteristics of the two simulated testbeds.
func TableI() *Table {
	t := &Table{
		ID:      "Table I",
		Title:   "Multi-core architectures used for the experiments",
		Columns: []string{"Name"},
	}
	tops := Machines()
	for _, top := range tops {
		t.Columns = append(t.Columns, top.Attrs.Name)
	}
	row := func(name string, get func(*topology.Topology) string) {
		r := []string{name}
		for _, top := range tops {
			r = append(r, get(top))
		}
		t.Rows = append(t.Rows, r)
	}
	row("OS", func(tp *topology.Topology) string { return tp.Attrs.OS })
	row("Kernel", func(tp *topology.Topology) string { return tp.Attrs.Kernel })
	row("Cores per socket", func(tp *topology.Topology) string {
		return fmt.Sprintf("%d", tp.NumCores()/tp.NumObjects(topology.Socket))
	})
	row("NUMA nodes", func(tp *topology.Topology) string {
		return fmt.Sprintf("%d", tp.NumObjects(topology.NUMANode))
	})
	row("Socket", func(tp *topology.Topology) string { return tp.Attrs.SocketModel })
	row("Clock rate", func(tp *topology.Topology) string {
		return fmt.Sprintf("%.0fMHz", tp.Attrs.ClockMHz)
	})
	row("Hyper-Threading", func(tp *topology.Topology) string {
		if tp.Attrs.Hyperthreaded {
			return "Yes"
		}
		return "No"
	})
	row("Total cores", func(tp *topology.Topology) string { return fmt.Sprintf("%d", tp.NumCores()) })
	row("Total PUs", func(tp *topology.Topology) string { return fmt.Sprintf("%d", tp.NumPUs()) })
	row("L1 cache", func(tp *topology.Topology) string { return cacheSize(tp, topology.L1) })
	row("L2 cache", func(tp *topology.Topology) string { return cacheSize(tp, topology.L2) })
	row("L3 cache", func(tp *topology.Topology) string { return cacheSize(tp, topology.L3) })
	row("Memory interconnect", func(tp *topology.Topology) string {
		return fmt.Sprintf("%s (%.1fGB/s)", tp.Attrs.InterconnectName, tp.Attrs.InterconnectGBps)
	})
	return t
}

func cacheSize(tp *topology.Topology, typ topology.ObjectType) string {
	objs := tp.Objects(typ)
	if len(objs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%dK", objs[0].CacheSize>>10)
}
