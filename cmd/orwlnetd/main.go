// Command orwlnetd serves ORWL locations — and, with -place, a
// placement service for a fleet of machine topologies — over TCP, so
// separate processes can share locations with the ordered
// read-write-lock FIFO discipline and obtain topology-aware mappings
// from a central daemon (the distributed deployment of the ORWL
// model).
//
// Usage:
//
//	orwlnetd [-addr host:port] [-loc name:size ...] [-place] [-machine name ...] [-cache-entries n] [-conn-idle d]
//	         [-adaptive] [-snapshot-path file] [-snapshot-interval d] [-snapshot-keep n] [-stats-addr host:port]
//	         [-report-rate r] [-report-burst b] [-report-max-bytes n] [-report-bandwidth bps]
//	         [-max-lease-tasks n]
//	orwlnetd -inspect-snapshot file [-max-lease-tasks n]
//
// At least one of -loc or -place is required. -machine is repeatable
// and picks the topologies the placement service maps onto: named
// testbeds (see lstopo) and/or "host" for the machine the daemon runs
// on. The first -machine is the fleet's default — where requests that
// name no machine are routed; `PlaceRequest.Machine` selects any
// other. -cache-entries bounds each machine engine's mapping cache (0
// disables caching).
//
// -conn-idle reaps connections that stay byte-silent for the duration
// with nothing in flight (e.g. "-conn-idle 5m"); a connection waiting
// on a parked Await or a computing placement is never reaped. The
// default 0 keeps connections forever, the historical behaviour.
//
// -adaptive (requires -place) hosts the fleet control plane: client
// processes lease task ranges, stream observed-traffic windows up, and
// subscribe to remaps; the daemon merges the windows per machine, runs
// a reconciliation epoch every -epoch-interval, and pushes adopted
// mappings to every subscriber. -drift-threshold, -adopt-after,
// -cooldown-epochs and -stale-after tune the loop.
//
// -snapshot-path makes the control plane durable: the lease table,
// per-machine epochs and the latest adopted remaps are written to the
// file atomically every -snapshot-interval and once more on graceful
// drain, and restored on the next start (a missing file starts fresh
// silently; a corrupt or version-skewed one logs a warning and starts
// fresh). A daemon restarted with the same -snapshot-path resumes its
// epoch counters, so reconnecting clients see a continuous epoch
// stream instead of a reset.
//
// -snapshot-keep N retains the last N snapshot generations instead of
// overwriting one file: each save shifts file → file.1 → … →
// file.(N-1) before writing fresh, and restore picks the newest
// generation that passes its checksum — a snapshot corrupted by a
// crash or a bad disk block falls back to the previous one instead of
// forcing a cold start.
//
// -stats-addr (requires -place) serves the daemon's live ServiceStats
// — placement counters, transport NetStats, control-plane FleetStats
// including the delta/full remap push split — as JSON over HTTP:
// GET /stats returns the snapshot, and /debug/vars exposes the same
// object through the standard expvar surface for generic scrapers.
// The endpoint is read-only and binds separately from the RPC
// listener, so it can stay on localhost while the daemon serves the
// fleet.
//
// -max-lease-tasks raises (or lowers) the largest global task index the
// control plane accepts — in lease registrations, in the order of the
// windows reports carry, and when validating a restored snapshot. The
// merged fleet matrix is sparse, so a raised bound costs O(observed
// pairs), not O(n²). A snapshot written under a raised bound only
// restores under the same (or a larger) bound.
//
// -inspect-snapshot dumps a control-plane snapshot file — checksum
// status, schema version, every lease, and each machine's epoch,
// adopted mapping and baseline matrix density — then exits without
// starting a daemon. Pair it with -max-lease-tasks when inspecting a
// snapshot from a raised-bound deployment.
//
// Hostile-peer hardening (with -adaptive): -report-rate/-report-burst
// throttle each lease's observed-report cadence (a spammer gets a
// retryable rate-limit error, other peers are unaffected), and
// -report-max-bytes/-report-bandwidth cap what one connection may push
// at the decoder. A report's rows are capped by -max-lease-tasks.
//
// The daemon traps SIGINT/SIGTERM and drains in-flight calls before
// exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// locFlags collects repeated -loc name:size flags.
type locFlags map[string]int

func (l locFlags) String() string { return fmt.Sprintf("%d locations", len(l)) }

func (l locFlags) Set(v string) error {
	name, sizeStr, ok := strings.Cut(v, ":")
	if !ok || name == "" {
		return fmt.Errorf("want name:size, got %q", v)
	}
	size, err := strconv.Atoi(sizeStr)
	if err != nil || size < 0 {
		return fmt.Errorf("bad size in %q", v)
	}
	if _, dup := l[name]; dup {
		return fmt.Errorf("duplicate location %q", name)
	}
	l[name] = size
	return nil
}

// machineFlags collects repeated -machine flags, rejecting duplicates
// (fleet names are routing keys).
type machineFlags []string

func (m *machineFlags) String() string { return strings.Join(*m, ",") }

func (m *machineFlags) Set(v string) error {
	for _, have := range *m {
		if have == v {
			return fmt.Errorf("duplicate machine %q", v)
		}
	}
	*m = append(*m, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "listen address")
	place := flag.Bool("place", false, "export a placement service")
	connIdle := flag.Duration("conn-idle", 0, "close connections idle (byte-silent with nothing in flight) for this long; 0 keeps them forever")
	adaptive := flag.Bool("adaptive", false, "host the fleet control plane: merge client-reported traffic, reconcile per machine, push adopted remaps (requires -place)")
	epochInterval := flag.Duration("epoch-interval", time.Second, "reconciliation epoch cadence with -adaptive")
	driftThreshold := flag.Float64("drift-threshold", 0, "observed-traffic drift that triggers recomputation (0 keeps the built-in default)")
	adoptAfter := flag.Int("adopt-after", 1, "consecutive over-threshold epochs before a recompute is attempted (hysteresis)")
	cooldownEpochs := flag.Int("cooldown-epochs", 0, "epochs to hold after an adoption before the next one")
	staleAfter := flag.Duration("stale-after", 0, "evict a lease whose peer has not reported for this long (0 keeps the built-in default, negative never evicts)")
	maxLeaseTasks := flag.Int("max-lease-tasks", ctrlplane.DefaultMaxLeaseTasks, "largest global task index the control plane accepts in lease registrations, observed reports and snapshot restores (the merged fleet matrix is sparse, so raising it costs O(nnz), not O(n²))")
	inspectSnap := flag.String("inspect-snapshot", "", "dump the given control-plane snapshot (leases, epochs, matrix density, checksum status) and exit without starting a daemon")
	snapPath := flag.String("snapshot-path", "", "persist the control plane (leases, epochs, adopted remaps) to this file and restore it on startup (requires -adaptive)")
	snapInterval := flag.Duration("snapshot-interval", 10*time.Second, "cadence of periodic snapshots with -snapshot-path (a final snapshot is always taken on graceful drain)")
	snapKeep := flag.Int("snapshot-keep", 1, "snapshot generations to retain with -snapshot-path: each save rotates file -> file.1 -> ... and restore falls back to the newest generation whose checksum verifies")
	statsAddr := flag.String("stats-addr", "", "serve read-only ServiceStats as JSON over HTTP on this address (GET /stats, expvar at /debug/vars; requires -place)")
	reportRate := flag.Float64("report-rate", 0, "per-lease observed-report rate limit in reports/sec (0 = unlimited); a throttled peer gets a retryable error, others are unaffected")
	reportBurst := flag.Float64("report-burst", 0, "burst allowance for -report-rate (0 = the rate itself)")
	reportMaxBytes := flag.Int("report-max-bytes", 0, "refuse observed-report frames larger than this many bytes (0 = the protocol's 64MiB ceiling)")
	reportBandwidth := flag.Float64("report-bandwidth", 0, "per-connection observed-report byte budget in bytes/sec (0 = unlimited)")
	cacheEntries := flag.Int("cache-entries", -1, "mapping-cache capacity per machine engine (0 disables caching, -1 keeps the built-in default)")
	machines := machineFlags{}
	flag.Var(&machines, "machine", "machine the placement service maps onto (repeatable; the first is the fleet default): host, "+strings.Join(topology.MachineNames(), ", "))
	locSpec := locFlags{}
	flag.Var(locSpec, "loc", "location to export as name:size (repeatable)")
	flag.Parse()
	if *maxLeaseTasks <= 0 {
		fmt.Fprintln(os.Stderr, "orwlnetd: -max-lease-tasks must be positive")
		os.Exit(2)
	}
	if *inspectSnap != "" {
		os.Exit(inspectSnapshot(*inspectSnap, *maxLeaseTasks))
	}
	if len(locSpec) == 0 && !*place {
		fmt.Fprintln(os.Stderr, "orwlnetd: nothing to serve: need -loc name:size and/or -place")
		os.Exit(2)
	}

	if *adaptive && !*place {
		fmt.Fprintln(os.Stderr, "orwlnetd: -adaptive requires -place (the control plane reconciles the placement fleet)")
		os.Exit(2)
	}
	if *snapPath != "" && !*adaptive {
		fmt.Fprintln(os.Stderr, "orwlnetd: -snapshot-path requires -adaptive (only the control plane has durable state)")
		os.Exit(2)
	}
	if *snapKeep < 1 {
		fmt.Fprintln(os.Stderr, "orwlnetd: -snapshot-keep must be at least 1")
		os.Exit(2)
	}
	if *statsAddr != "" && !*place {
		fmt.Fprintln(os.Stderr, "orwlnetd: -stats-addr requires -place (the stats endpoint serves the placement service description)")
		os.Exit(2)
	}

	var opts []orwlnet.ServerOption
	if *connIdle > 0 {
		opts = append(opts, orwlnet.WithIdleTimeout(*connIdle))
	}
	var ctrl *ctrlplane.Controller
	if *place {
		if len(machines) == 0 {
			machines = machineFlags{"host"}
		}
		var engOpts []placement.EngineOption
		if *cacheEntries >= 0 {
			engOpts = append(engOpts, placement.WithCacheEntries(*cacheEntries))
		}
		fleet := placement.NewMultiService()
		pus := 0
		for _, name := range machines {
			top, err := pickMachine(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
				os.Exit(2)
			}
			if err := fleet.AddMachine(name, top, engOpts...); err != nil {
				fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
				os.Exit(1)
			}
			pus += top.NumPUs()
		}
		opts = append(opts, orwlnet.WithPlacement(fleet))
		fmt.Printf("orwlnetd: placement fleet of %d machine(s) [%s], default %s (%d PUs total, strategies: %s)\n",
			len(machines), strings.Join(fleet.Machines(), ", "), fleet.DefaultMachine(),
			pus, strings.Join(placement.Names(), ", "))
		if *adaptive {
			burst := *reportBurst
			if burst <= 0 {
				burst = *reportRate
			}
			cfg := ctrlplane.Config{
				Adaptive: placement.AdaptiveConfig{
					DriftThreshold: *driftThreshold,
					AdoptAfter:     *adoptAfter,
					CooldownEpochs: *cooldownEpochs,
				},
				StaleAfter:    *staleAfter,
				ReportRate:    *reportRate,
				ReportBurst:   burst,
				MaxLeaseTasks: *maxLeaseTasks,
			}
			var err error
			ctrl, err = ctrlplane.NewController(fleet, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
				os.Exit(1)
			}
			opts = append(opts, orwlnet.WithControlPlane(ctrl))
			if *reportMaxBytes > 0 || *reportBandwidth > 0 {
				opts = append(opts, orwlnet.WithReportCaps(*reportMaxBytes, *reportBandwidth, 0))
			}
			fmt.Printf("orwlnetd: fleet control plane on (epoch %v, adopt-after %d, cooldown %d)\n",
				*epochInterval, *adoptAfter, *cooldownEpochs)
			if *snapPath != "" {
				restoreSnapshot(ctrl, *snapPath, *maxLeaseTasks, *snapKeep)
			}
		}
	}

	locs := make(map[string]*orwl.Location, len(locSpec))
	if len(locSpec) > 0 {
		prog := orwl.MustProgram(1)
		for name, size := range locSpec {
			loc, err := prog.AddLocation(orwl.Loc(0, name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
				os.Exit(1)
			}
			loc.Scale(size)
			locs[name] = loc
		}
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
		os.Exit(1)
	}
	srv, err := orwlnet.NewServer(lis, locs, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
		os.Exit(1)
	}

	// The stats endpoint binds before the daemon announces itself, so a
	// scraper started right after the banner never races the listener.
	if *statsAddr != "" {
		statsLis, err := startStatsServer(*statsAddr, srv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orwlnetd: stats endpoint: %v\n", err)
			os.Exit(1)
		}
		defer statsLis.Close()
		fmt.Printf("orwlnetd: stats endpoint on http://%s/stats\n", statsLis.Addr())
	}

	// The control plane's epoch loop runs beside the server and stops
	// with it; adopted remaps are logged so operators (and the CI smoke
	// test) can follow the fleet's reconciliation.
	ctrlCtx, ctrlStop := context.WithCancel(context.Background())
	defer ctrlStop()
	if ctrl != nil {
		go ctrl.Run(ctrlCtx, *epochInterval, func(machine string, rep *placement.EpochReport, err error) {
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "orwlnetd: epoch %s: %v\n", machine, err)
			case rep.Adopted:
				ev := ctrl.Latest(machine)
				if ev != nil {
					fmt.Printf("orwlnetd: adopted remap machine=%s epoch=%d drift=%.3f\n", machine, ev.Epoch, ev.Drift)
				}
			}
		})
	}

	// Periodic snapshots run beside the epoch loop: losing the daemon
	// between ticks costs at most one interval of control-plane state
	// (clients re-lease and the reconciler re-primes for the rest).
	if ctrl != nil && *snapPath != "" && *snapInterval > 0 {
		go func() {
			tick := time.NewTicker(*snapInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctrlCtx.Done():
					return
				case <-tick.C:
					saveSnapshot(ctrl, *snapPath, *snapKeep)
				}
			}
		}()
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting and let
	// Server.Close drain the per-connection goroutines, so no client is
	// dropped mid-frame. Close blocks until the drain completes, so the
	// process only exits once every in-flight call has been answered.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	fmt.Printf("orwlnetd: serving %d locations on %s\n", len(locs), lis.Addr())
	select {
	case sig := <-sigs:
		fmt.Printf("orwlnetd: %v: draining...\n", sig)
		ctrlStop()
		srv.Close()
		<-serveErr
		if ctrl != nil && *snapPath != "" {
			// Final snapshot after the drain: every acknowledged report
			// and adopted epoch is in it.
			saveSnapshot(ctrl, *snapPath, *snapKeep)
		}
		fmt.Println("orwlnetd: drained, bye")
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
			os.Exit(1)
		}
	}
}

// restoreSnapshot loads the control plane's state from the newest
// valid generation under path (see -snapshot-keep), validated against
// the daemon's lease-task bound (a snapshot written under a raised
// -max-lease-tasks only restores under the same bound). A missing file
// is a normal first start; when every present generation is unreadable
// — truncated, bit-flipped, written by an incompatible version — it
// logs a warning and starts fresh rather than refusing to serve.
func restoreSnapshot(ctrl *ctrlplane.Controller, path string, maxTasks, keep int) {
	s, source, err := ctrlplane.LoadSnapshot(path, maxTasks, keep)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return
	case err != nil:
		fmt.Fprintf(os.Stderr, "orwlnetd: snapshot %s unusable (%v): starting fresh\n", path, err)
		return
	}
	if err := ctrl.Restore(s); err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: snapshot %s not restorable (%v): starting fresh\n", source, err)
		return
	}
	var maxEpoch uint64
	for _, mr := range s.Machines {
		if mr.Epoch > maxEpoch {
			maxEpoch = mr.Epoch
		}
	}
	fmt.Printf("orwlnetd: resumed from snapshot %s: %d lease(s), %d machine(s), max epoch %d\n",
		source, len(s.Leases), len(s.Machines), maxEpoch)
}

// saveSnapshot persists the control plane's state, rotating the last
// keep generations; failures are logged and the daemon keeps serving
// (durability is best-effort, service is not).
func saveSnapshot(ctrl *ctrlplane.Controller, path string, keep int) {
	if err := ctrlplane.SaveSnapshot(path, ctrl.Snapshot(), keep); err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: snapshot %s: %v\n", path, err)
	}
}

// startStatsServer binds the read-only stats endpoint: GET /stats
// answers the daemon's live ServiceStats as JSON, and /debug/vars
// exposes the same snapshot through the standard expvar surface (the
// shape generic scrapers already understand).
func startStatsServer(addr string, srv *orwlnet.Server) (net.Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	expvar.Publish("orwlplace", expvar.Func(func() any {
		st, err := srv.ServiceStats(context.Background())
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return st
	}))
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := srv.ServiceStats(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	go http.Serve(lis, mux)
	return lis, nil
}

// inspectSnapshot dumps a control-plane snapshot for operators: the
// container facts (version, checksum), every lease, and every
// machine's epoch, adopted mapping and baseline density — without
// starting a daemon or binding a socket. Returns the process exit
// code: 0 for a readable snapshot, 1 otherwise.
func inspectSnapshot(path string, maxTasks int) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
		return 1
	}
	fmt.Printf("snapshot %s: %d bytes\n", path, len(data))
	version, crcOK, err := ctrlplane.SnapshotFileInfo(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
		return 1
	}
	status := "ok"
	if !crcOK {
		status = "MISMATCH"
	}
	fmt.Printf("version %d (daemon writes %d), checksum %s\n", version, ctrlplane.SnapshotVersion, status)
	s, err := ctrlplane.DecodeSnapshotLimit(data, maxTasks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orwlnetd: %v\n", err)
		return 1
	}
	fmt.Printf("next lease id %d\n", s.NextLeaseID)
	fmt.Printf("leases: %d\n", len(s.Leases))
	for _, lr := range s.Leases {
		owned := "no"
		if lr.Token != 0 {
			owned = "yes"
		}
		fmt.Printf("  lease %d machine=%s peer=%s tasks=[%d,+%d) owned=%s last-seq=%d\n",
			lr.ID, lr.Machine, lr.Peer, lr.TaskBase, lr.TaskCount, owned, lr.LastSeq)
	}
	fmt.Printf("machines: %d\n", len(s.Machines))
	for _, mr := range s.Machines {
		fmt.Printf("  machine %s order=%d epoch=%d\n", mr.Name, mr.Order, mr.Epoch)
		if mr.Latest != nil && mr.Latest.Assignment != nil {
			a := mr.Latest.Assignment
			parts := 0
			if a.Partitions != nil {
				parts = len(a.Partitions.Parts)
			}
			fmt.Printf("    adopted epoch=%d drift=%.3f strategy=%s tasks=%d partitions=%d\n",
				mr.Latest.Epoch, mr.Latest.Drift, a.Strategy, len(a.ComputePU), parts)
		}
		if mr.Base != nil {
			n, nnz := mr.Base.Order(), mr.Base.NNZ()
			density := 0.0
			if n > 0 {
				density = 100 * float64(nnz) / (float64(n) * float64(n))
			}
			fmt.Printf("    baseline order=%d nnz=%d density=%.2f%%\n", n, nnz, density)
		}
	}
	return 0
}

// pickMachine resolves -machine: the synthetic testbeds by name, or
// the host approximation.
func pickMachine(name string) (*topology.Topology, error) {
	if name == "host" {
		return topology.Host(), nil
	}
	return topology.ByName(name)
}
