// Command simulate runs a workload (JSON, see internal/perfsim
// ReadJSON) through the placement model on a chosen machine, comparing
// every strategy registered in the placement engine — the paper's
// affinity module, the oblivious environment policies and the unbound
// OS scheduler. It is the standalone face of the evaluation pipeline:
// describe your application's threads and communication, and see what
// automatic placement would buy.
//
// With -fleet the workload is instead batch-placed across every
// registered testbed in a single PlaceBatch RPC against a placement
// daemon — the paper's cross-machine comparison (Table I: where would
// this communication pattern land, and at what modeled cost, on each
// machine?), served remotely. -daemon points at a running `orwlnetd
// -place -machine ...`; without it a loopback fleet daemon over all
// testbeds is started in-process, so the RPC path is exercised either
// way.
//
// With -adaptive the workload is replayed as a phase-shifting trace
// through the closed placement loop: the declared pattern runs for
// -shift-1 epochs, then the traffic permutes into a structure the
// initial mapping is wrong for. Each epoch the reconciler measures
// drift against the matrix backing the current mapping and re-places
// when the perfsim-modeled gain beats the modeled migration cost. The
// table compares the modeled seconds of keeping the initial static
// mapping against letting the loop react.
//
// With -chaos (requires -adaptive) the replay additionally loses
// observed windows at random — the trace a fleet daemon sees when
// client reports are dropped on the wire. A lost epoch feeds the
// reconciler an empty window: drift cannot be measured, the hysteresis
// streak resets, and reaction is delayed until a window survives. The
// loss schedule is seeded (-chaos-seed), so a run is reproducible.
//
// Usage:
//
// With -scale n the tool instead exercises the sparse partitioned
// mapping path at fleet size: a ring-of-clusters affinity of n tasks
// (O(n) nonzeros, no dense n² anywhere) is mapped onto the 1024-core
// fleet1k testbed, timed cold and cached — the CI large-scale smoke.
//
// Usage:
//
//	simulate -w workload.json [-m machine] [-seed n]
//	simulate -demo            # built-in demo workload (K23, 64 cores)
//	simulate -demo -fleet [-daemon host:port]
//	simulate -demo -adaptive [-epochs n] [-shift k]
//	simulate -demo -adaptive -chaos [-loss p] [-chaos-seed n]
//	simulate -scale 10000     # sparse 10k-task mapping smoke
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"orwlplace"
	"orwlplace/internal/apps/livermore"
	"orwlplace/internal/comm"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

func main() {
	machine := flag.String("m", "smp12e5", "machine: "+strings.Join(topology.MachineNames(), ", "))
	path := flag.String("w", "", "workload JSON file")
	demo := flag.Bool("demo", false, "use the built-in demo workload instead of -w")
	seed := flag.Int64("seed", 42, "seed for the simulated OS scheduler")
	fleet := flag.Bool("fleet", false, "batch-place the workload across every testbed in one RPC instead of simulating on -m")
	daemon := flag.String("daemon", "", "with -fleet: address of a running fleet daemon (orwlnetd -place); empty starts one in-process")
	adaptive := flag.Bool("adaptive", false, "replay the workload as a phase-shifting trace through the adaptive re-placement loop")
	epochs := flag.Int("epochs", 8, "with -adaptive: epochs to replay")
	shift := flag.Int("shift", 4, "with -adaptive: epoch at which the communication pattern shifts")
	chaos := flag.Bool("chaos", false, "with -adaptive: lose observed windows at random, as a daemon under report loss would")
	loss := flag.Float64("loss", 0.4, "with -chaos: probability an epoch's observed window is lost")
	chaosSeed := flag.Int64("chaos-seed", 2, "with -chaos: seed of the loss schedule (reproducible runs)")
	scale := flag.Int("scale", 0, "large-scale smoke: map a sparse ring-of-clusters of this many tasks onto the fleet1k testbed and report wall-clock (skips the workload simulation)")
	flag.Parse()

	if *scale > 0 {
		if err := runScale(*scale); err != nil {
			fail(err)
		}
		return
	}

	w, err := loadWorkload(*path, *demo)
	if err != nil {
		fail(err)
	}
	if *fleet {
		if err := runFleet(w, *daemon); err != nil {
			fail(err)
		}
		return
	}
	if *adaptive {
		lossProb := 0.0
		if *chaos {
			lossProb = *loss
		}
		if err := runAdaptive(w, *machine, *epochs, *shift, *seed, lossProb, *chaosSeed); err != nil {
			fail(err)
		}
		return
	}
	if *chaos {
		fail(fmt.Errorf("simulate: -chaos requires -adaptive (it injects loss into the replayed trace)"))
	}

	top, err := topology.ByName(*machine)
	if err != nil {
		fail(err)
	}
	eng, err := placement.NewEngine(top)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %q: %d threads, %d iterations on %s\n\n",
		w.Name, len(w.Threads), w.Iterations, top.Attrs.Name)

	fmt.Printf("%-22s %12s %14s %14s %10s\n", "strategy", "seconds", "L3 misses", "stalled cyc", "migrations")
	// The strategy runs are independent: fan them out across goroutines
	// (the engine is concurrency-safe) and print in registry order.
	names := placement.Names()
	type run struct {
		r   *perfsim.Result
		a   *placement.Assignment
		err error
	}
	runs := make([]run, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			// The affinity module runs with the paper's control-thread
			// accounting; the baselines have no options to tune.
			opt := placement.Options{}
			if name == placement.TreeMatch {
				opt.ControlThreads = true
			}
			runs[i].r, runs[i].a, runs[i].err = eng.Simulate(name, w, opt, *seed)
		}(i, name)
	}
	wg.Wait()
	results := map[string]*perfsim.Result{}
	var affinityMode fmt.Stringer
	for i, name := range names {
		if runs[i].err != nil {
			fail(runs[i].err)
		}
		label := name
		if name == placement.None {
			label = "none (os-scheduler)"
		}
		r := runs[i].r
		fmt.Printf("%-22s %12.3f %14.3g %14.3g %10.0f\n",
			label, r.Seconds, r.L3Misses, r.StalledCycles, r.CPUMigrations)
		results[name] = r
		if name == placement.TreeMatch {
			affinityMode = runs[i].a.Mode
		}
	}

	aff, dyn := results[placement.TreeMatch], results[placement.None]
	if aff != nil && dyn != nil && aff.Seconds > 0 {
		fmt.Printf("\naffinity speedup over the OS scheduler: %.2fx (control mode: %s)\n",
			dyn.Seconds/aff.Seconds, affinityMode)
	}
}

// runScale is the large-scale placement smoke: a sparse ring-of-
// clusters affinity of roughly n tasks mapped onto the 1024-core
// fleet1k testbed through the partitioned treematch path. Nothing on
// this path materializes n² state; the wall-clock it prints is the
// CI budget check for the 10k-task acceptance bar.
func runScale(n int) error {
	const clusterSize = 40
	clusters := n / clusterSize
	if clusters < 2 {
		return fmt.Errorf("simulate: -scale %d is below the %d-task minimum", n, 2*clusterSize)
	}
	tasks := clusters * clusterSize
	top := topology.Fleet1K()
	a := comm.RingOfClusters(clusters, clusterSize, 1<<20, 1<<12)
	eng, err := placement.NewEngine(top)
	if err != nil {
		return err
	}
	start := time.Now()
	asg, cached, err := eng.ComputeHinted(placement.TreeMatch, a, 0, 0, placement.Options{})
	cold := time.Since(start)
	if err != nil {
		return err
	}
	if cached {
		return fmt.Errorf("simulate: first large-scale mapping claims to be cached")
	}
	parts := 0
	if asg.Partitions != nil {
		parts = len(asg.Partitions.Parts)
	}
	fmt.Printf("large-scale: mapped %d tasks (%d nonzeros) onto %d PUs in %v (%d partitions)\n",
		tasks, a.NNZ(), top.NumPUs(), cold.Round(time.Microsecond), parts)
	start = time.Now()
	if _, cached, err = eng.ComputeHinted(placement.TreeMatch, a, 0, 0, placement.Options{}); err != nil {
		return err
	}
	warm := time.Since(start)
	if !cached {
		return fmt.Errorf("simulate: repeated large-scale mapping missed the cache")
	}
	fmt.Printf("large-scale: cached recall in %v\n", warm.Round(time.Microsecond))
	return nil
}

// runFleet batch-places the workload's communication matrix onto
// every machine of a fleet daemon in a single RPC and prints the
// cross-machine comparison. With no daemon address, a loopback fleet
// over all registered testbeds is served in-process.
func runFleet(w *perfsim.Workload, daemonAddr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if daemonAddr == "" {
		fleet, err := orwlplace.NewFleet(topology.MachineNames())
		if err != nil {
			return err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet))
		if err != nil {
			return err
		}
		go srv.Serve()
		defer srv.Close()
		daemonAddr = lis.Addr().String()
		fmt.Printf("in-process fleet daemon on %s\n", daemonAddr)
	}

	c, err := orwlnet.DialContext(ctx, daemonAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	remote := c.PlacementService()
	stats, err := remote.Stats(ctx)
	if err != nil {
		return err
	}
	if len(stats.Machines) == 0 {
		return fmt.Errorf("simulate: daemon at %s serves no fleet machines", daemonAddr)
	}

	reqs := make([]*placement.PlaceRequest, len(stats.Machines))
	for i, m := range stats.Machines {
		reqs[i] = &placement.PlaceRequest{
			Machine:  m,
			Strategy: placement.TreeMatch,
			Matrix:   w.Comm,
			Options:  placement.Options{ControlThreads: true},
		}
	}
	start := time.Now()
	resps, err := remote.PlaceBatch(ctx, reqs)
	if err != nil {
		return err
	}
	rtt := time.Since(start)

	fmt.Printf("workload %q: %d threads batch-placed across %d machines in one RPC (%.2fms round trip)\n\n",
		w.Name, len(w.Threads), len(stats.Machines), float64(rtt.Nanoseconds())/1e6)
	fmt.Printf("%-12s %14s %16s %10s %12s\n", "machine", "cost", "cross-NUMA", "cache", "daemon ms")
	for i, resp := range resps {
		if resp.Err != "" {
			fmt.Printf("%-12s %s\n", stats.Machines[i], resp.Err)
			continue
		}
		hit := "miss"
		if resp.CacheHit {
			hit = "hit"
		}
		fmt.Printf("%-12s %14.3g %16.3g %10s %12.2f\n",
			resp.Machine, resp.Cost, resp.CrossNUMAVolume, hit, float64(resp.ElapsedNS)/1e6)
	}
	// The fleet stats: all zeros unless the daemon hosts the
	// fleet control plane (orwlnetd -adaptive) and clients feed it.
	if final, err := remote.Stats(ctx); err == nil {
		fs := final.Fleet
		fmt.Printf("\nfleet control plane: reports=%d peers=%d remaps-pushed=%d stale-evicted=%d watchers=%d\n",
			fs.ReportsReceived, fs.PeersTracked, fs.RemapsPushed, fs.StalePeersEvicted, fs.Watchers)
	}
	return nil
}

// phaseScript feeds the reconciler one matrix per epoch. A non-zero
// loss probability makes it lossy: a lost epoch hands the reconciler
// an empty window — the traffic happened, the report did not arrive —
// and wasLost records it for the replay table.
type phaseScript struct {
	matrices []*comm.Matrix
	next     int

	rng     *rand.Rand // nil = lossless
	loss    float64
	wasLost bool
	lost    int
}

func (s *phaseScript) Name() string { return "replay" }

func (s *phaseScript) Affinity() (comm.Affinity, error) {
	i := s.next
	if i >= len(s.matrices) {
		i = len(s.matrices) - 1
	} else {
		s.next++
	}
	m := s.matrices[i]
	s.wasLost = s.rng != nil && s.rng.Float64() < s.loss
	if s.wasLost {
		s.lost++
		return comm.NewMatrix(m.Order()), nil
	}
	return m, nil
}

// shufflePerm is the block-transpose permutation that turns neighbour
// affinity into stride-k affinity: the shifted phase keeps the
// workload's volume profile but lands its heavy pairs on entities the
// initial mapping scattered across the machine.
func shufflePerm(n int) []int {
	k := 4
	for ; k > 1; k-- {
		if n%k == 0 {
			break
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i%k)*(n/k) + i/k
	}
	return perm
}

// homogenize flattens the workload's thread profile to its average:
// the adaptive replay studies communication-structure drift, and with
// heterogeneous threads a permuted pattern also reshuffles which
// compute profile pairs with which traffic — noise that would swamp
// the placement signal the replay demonstrates.
func homogenize(w *perfsim.Workload) *perfsim.Workload {
	out := *w
	var cc, ws, mt float64
	for _, th := range w.Threads {
		cc += th.ComputeCycles
		ws += th.WorkingSet
		mt += th.MemoryTraffic
	}
	n := float64(len(w.Threads))
	avg := perfsim.Thread{ComputeCycles: cc / n, WorkingSet: ws / n, MemoryTraffic: mt / n}
	out.Threads = make([]perfsim.Thread, len(w.Threads))
	for i := range out.Threads {
		out.Threads[i] = avg
	}
	return &out
}

// runAdaptive replays the workload as a phase-shifting trace through
// the closed placement loop and prints the static-vs-adaptive
// comparison.
func runAdaptive(w *perfsim.Workload, machine string, epochs, shift int, seed int64, loss float64, chaosSeed int64) error {
	if epochs < 1 {
		return fmt.Errorf("simulate: -epochs must be positive")
	}
	if shift < 2 || shift > epochs {
		return fmt.Errorf("simulate: -shift must fall inside 2..epochs (%d)", epochs)
	}
	top, err := topology.ByName(machine)
	if err != nil {
		return err
	}
	eng, err := placement.NewEngine(top)
	if err != nil {
		return err
	}
	w = homogenize(w)
	n := len(w.Threads)
	phaseA := w.Comm.Dense()
	phaseB, err := phaseA.Permuted(shufflePerm(n))
	if err != nil {
		return err
	}
	fmt.Printf("workload %q: %d threads on %s, %d epochs, pattern shift at epoch %d (drift %.2f)\n\n",
		w.Name, n, top.Attrs.Name, epochs, shift, placement.Drift(phaseA, phaseB))

	script := &phaseScript{}
	if loss > 0 {
		script.rng = rand.New(rand.NewSource(chaosSeed))
		script.loss = loss
		fmt.Printf("chaos: each epoch's observed window is lost with probability %.2f (seed %d)\n\n", loss, chaosSeed)
	}
	patterns := make([]*comm.Matrix, epochs)
	for e := 0; e < epochs; e++ {
		if e+1 < shift {
			patterns[e] = phaseA
		} else {
			patterns[e] = phaseB
		}
	}
	script.matrices = patterns

	horizon := w.Iterations
	if horizon < 1 {
		horizon = 1
	}
	// A remap adopted at the end of the shift epoch serves the epochs
	// after it (the shift epoch itself already ran under the old
	// mapping — reaction lags by one epoch): that is the window the
	// migration cost amortizes over.
	remaining := (epochs - shift) * horizon
	if remaining < 1 {
		remaining = 1
	}
	rec, err := placement.NewReconciler(eng, script, nil, placement.AdaptiveConfig{
		// The paper's affinity module binds control threads; the loop
		// and the oracle below use the same options so the comparison
		// isolates the communication shift.
		Options:  placement.Options{ControlThreads: true},
		Workload: w,
		Horizon:  remaining,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	if err := rec.Prime(placement.Fixed("declared", phaseA)); err != nil {
		return err
	}
	static := rec.Current()

	model := func(pattern *comm.Matrix, a *placement.Assignment) (float64, error) {
		epochW := *w
		epochW.Comm = pattern
		epochW.Iterations = horizon
		res, err := perfsim.Simulate(top, &epochW, eng.SimPlacement(a, seed))
		if err != nil {
			return 0, err
		}
		return res.Seconds, nil
	}

	fmt.Printf("%-6s %-9s %8s %-8s %12s %12s %12s\n",
		"epoch", "pattern", "drift", "action", "static s", "adaptive s", "remap cost s")
	var staticTotal, adaptiveTotal float64
	for e := 0; e < epochs; e++ {
		// The mapping in force during the epoch is whatever the loop
		// decided at the end of the previous one: reaction lags the
		// shift by one epoch, as it would against live counters.
		inForce := rec.Current()
		sSec, err := model(patterns[e], static)
		if err != nil {
			return err
		}
		aSec, err := model(patterns[e], inForce)
		if err != nil {
			return err
		}
		staticTotal += sSec
		adaptiveTotal += aSec

		rep, err := rec.Epoch()
		if err != nil {
			return err
		}
		action := "keep"
		switch {
		case script.wasLost:
			// The window never reached the loop: no drift measurement,
			// and the hysteresis streak starts over.
			action = "lost"
		case rep.Adopted:
			action = "REMAP"
			// The switch itself is not free: charge the modeled
			// migration cost to the adaptive trajectory.
			adaptiveTotal += rep.CostSeconds
		case rep.Recomputed:
			action = "reject"
		}
		name := "declared"
		if patterns[e] == phaseB {
			name = "shifted"
		}
		fmt.Printf("%-6d %-9s %8.3f %-8s %12.4f %12.4f %12.6f\n",
			e+1, name, rep.Drift, action, sSec, aSec, rep.CostSeconds)
	}

	st := rec.Stats()
	if loss > 0 {
		fmt.Printf("\nloop: %d epochs (%d windows lost), %d drift alarms, %d remaps, %d rejected\n",
			st.Epochs, script.lost, st.DriftEpochs, st.Remaps, st.Rejected)
	} else {
		fmt.Printf("\nloop: %d epochs, %d drift alarms, %d remaps, %d rejected\n",
			st.Epochs, st.DriftEpochs, st.Remaps, st.Rejected)
	}

	oracleSec := 0.0
	for e := 0; e < epochs; e++ {
		oracle, _, err := eng.ComputeHinted(placement.TreeMatch, patterns[e], 0, n, placement.Options{ControlThreads: true})
		if err != nil {
			return err
		}
		sec, err := model(patterns[e], oracle)
		if err != nil {
			return err
		}
		oracleSec += sec
	}
	fmt.Printf("modeled totals: static %.4fs, adaptive %.4fs, oracle %.4fs\n", staticTotal, adaptiveTotal, oracleSec)
	if gap := staticTotal - oracleSec; gap > 0 {
		fmt.Printf("adaptive placement recovered %.0f%% of the modeled cost gap over the static mapping\n",
			100*(staticTotal-adaptiveTotal)/gap)
	} else {
		fmt.Println("no modeled gap between static and oracle mappings on this trace")
	}
	return nil
}

func loadWorkload(path string, demo bool) (*perfsim.Workload, error) {
	if demo || path == "" {
		if !demo {
			return nil, fmt.Errorf("simulate: -w workload.json or -demo required")
		}
		return livermore.Profile(16384, 64, 100)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perfsim.ReadJSON(f)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
