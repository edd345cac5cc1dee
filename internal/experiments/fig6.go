package experiments

import (
	"orwlplace/internal/apps/tracking"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/topology"
)

// Tracking experiment parameters (§VI-B3): 30 tasks on 30 cores (4
// sockets); throughput measured in frames per second over a long run.
const trackingFrames = 1000

// fourSockets restricts a testbed machine to its first four sockets
// (32 cores), as the paper does for the streaming experiment: "we use
// only 4 sockets (30 cores) of the architectures".
func fourSockets(top *topology.Topology) *topology.Topology {
	restricted, err := topology.Restrict(top, 4)
	if err != nil {
		panic(err) // both testbeds have >= 12 NUMA nodes
	}
	return restricted
}

// trackingResult bundles the five configurations of Fig. 6 / Table IV.
type trackingResult struct {
	Sequential, OpenMP, OpenMPAffinity, ORWL, ORWLAffinity *perfsim.Result
}

func trackingRun(full *topology.Topology, size tracking.Size, frames int) (*trackingResult, error) {
	top := fourSockets(full)
	cfg := tracking.PaperConfig(size)
	orwlW, err := cfg.Profile(frames)
	if err != nil {
		return nil, err
	}
	ompW, err := cfg.ProfileOpenMP(frames)
	if err != nil {
		return nil, err
	}
	seqW, err := cfg.ProfileSequential(frames)
	if err != nil {
		return nil, err
	}
	out := &trackingResult{}
	if out.Sequential, err = runStrategy(top, seqW, "compact-cores"); err != nil {
		return nil, err
	}
	if out.OpenMP, err = runDynamic(top, ompW); err != nil {
		return nil, err
	}
	// Like Fig. 4: the best environment binding found over every
	// environment policy of the strategy table.
	if out.OpenMPAffinity, _, err = bestOblivious(top, ompW); err != nil {
		return nil, err
	}
	if out.ORWL, err = runDynamic(top, orwlW); err != nil {
		return nil, err
	}
	if out.ORWLAffinity, _, err = runAffinity(top, orwlW); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig6 regenerates one panel of Fig. 6: tracking FPS per resolution on
// the given machine, 30 tasks on 4 sockets.
func Fig6(top *topology.Topology) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 6 (" + top.Attrs.Name + ")",
		Title:  "HD video tracking throughput, 30 tasks",
		XLabel: "resolution",
		YLabel: "FPS",
		Series: []Series{
			{Label: "Sequential"}, {Label: "OpenMP"}, {Label: "OpenMP(Affinity)"},
			{Label: "ORWL"}, {Label: "ORWL(Affinity)"},
		},
	}
	for _, size := range []tracking.Size{tracking.HD, tracking.FullHD, tracking.FourK} {
		res, err := trackingRun(top, size, trackingFrames)
		if err != nil {
			return nil, err
		}
		name := map[string]string{"1280x720": "HD", "1920x1080": "Full HD", "3840x2160": "4K"}[size.String()]
		fig.XTicks = append(fig.XTicks, name)
		for i, r := range []*perfsim.Result{
			res.Sequential, res.OpenMP, res.OpenMPAffinity, res.ORWL, res.ORWLAffinity,
		} {
			fig.Series[i].Y = append(fig.Series[i].Y, r.FPS(trackingFrames))
		}
	}
	return fig, nil
}

// TableIV regenerates the counters of the HD tracking run on SMP12E5
// (30 cores).
func TableIV() (*Table, error) {
	res, err := trackingRun(topology.SMP12E5(), tracking.HD, trackingFrames)
	if err != nil {
		return nil, err
	}
	return counterTable("Table IV",
		"Video tracking counters on SMP12E5 (30 tasks, HD)",
		[]string{"ORWL", "ORWL(Affinity)", "OpenMP", "OpenMP(Affinity)"},
		[]*perfsim.Result{res.ORWL, res.ORWLAffinity, res.OpenMP, res.OpenMPAffinity}), nil
}
