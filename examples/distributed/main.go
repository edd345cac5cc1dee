// Distributed ORWL example: locations and placement served over TCP
// (the distributed face of the ORWL model — the paper evaluates a
// single SMP, but the runtime's resource abstraction is
// network-transparent). A daemon process exports a chain of locations
// plus a placement fleet; worker "processes" (separate client
// connections here) first obtain a topology-aware mapping for the
// pipeline from the remote daemon through the public orwlplace
// facade — comparing every fleet machine, one Place each, on the way
// — then run an iterative pipeline over the shared locations with
// exactly the ORWL FIFO discipline.
//
// By default the daemon is started in-process, so the example is
// self-contained. With -daemon host:port it runs against an external
// `orwlnetd -place -machine ... -loc stage0:8 -loc stage1:8 ...`
// fleet daemon instead — the end-to-end smoke CI exercises exactly
// that.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"orwlplace"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
)

func main() {
	stages := flag.Int("stages", 4, "pipeline stages")
	rounds := flag.Int("rounds", 5, "iterations per stage")
	machine := flag.String("machine", "tinyht", "daemon-side default machine for placement (in-process daemon only)")
	daemonAddr := flag.String("daemon", "", "address of an external orwlnetd fleet daemon exporting stage0..stageN locations and -place; empty starts one in-process")
	flag.Parse()

	names := make([]string, *stages)
	for i := range names {
		names[i] = fmt.Sprintf("stage%d", i)
	}

	// --- Daemon side (in-process mode): the owning process holds the
	// locations, exports them, and serves a placement fleet (what
	// `orwlnetd -place -machine ... -loc ...` does as a standalone
	// daemon). With -daemon, this whole block is someone else's
	// process.
	var owner *orwl.Program
	addr := *daemonAddr
	if addr == "" {
		owner = orwl.MustProgram(1)
		locs := make(map[string]*orwl.Location, *stages)
		for i := range names {
			loc, err := owner.AddLocation(orwl.Loc(0, names[i]))
			if err != nil {
				log.Fatal(err)
			}
			loc.Scale(8)
			locs[names[i]] = loc
		}
		fleet, err := orwlplace.NewFleet([]string{*machine})
		if err != nil {
			log.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv, err := orwlnet.NewServer(lis, locs, orwlnet.WithPlacement(fleet))
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve()
		defer srv.Close()
		addr = lis.Addr().String()
		fmt.Printf("daemon on %s: %d locations + placement fleet %v\n",
			addr, len(locs), fleet.Machines())
	} else {
		fmt.Printf("using external daemon at %s\n", addr)
	}

	// --- Program side: before running, ask the remote daemon where the
	// pipeline should go. Everything below uses only the public facade:
	// dial, describe the communication pattern, get the assignment.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	remote, err := orwlplace.DialPlacement(ctx, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()

	stats, err := remote.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote placement daemon: fleet %v (default %s), strategies %v\n",
		stats.Machines, stats.TopologyName, stats.Strategies)

	// Each stage exchanges one 8-byte record with its neighbour every
	// round: the chain structure is exactly what TreeMatch exploits.
	mat := orwlplace.NewMatrix(*stages)
	for s := 1; s < *stages; s++ {
		mat.AddSym(s-1, s, float64(8**rounds))
	}

	// Cross-machine comparison, one Place per machine: where would this
	// pipeline land on every machine the daemon serves?
	across, err := orwlplace.PlaceAcross(ctx, remote, orwlplace.TreeMatch, mat, *stages, stats.Machines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet comparison (%d machines, one Place per machine):\n", len(across))
	for i, resp := range across {
		if resp.Err != "" {
			fmt.Printf("  %-10s %s\n", stats.Machines[i], resp.Err)
			continue
		}
		fmt.Printf("  %-10s cost %8.0f, cross-NUMA %8.0f bytes, pus %v\n",
			resp.Machine, resp.Cost, resp.CrossNUMAVolume, resp.Assignment.ComputePU)
	}

	// The pipeline itself runs under the default machine's mapping.
	resp, err := orwlplace.PlaceOn(ctx, remote, orwlplace.TreeMatch, mat, *stages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote mapping on %s: strategy %s, cost %.0f, cache hit %v, %.2fms on daemon\n",
		resp.Machine, resp.Assignment.Strategy, resp.Cost, resp.CacheHit,
		float64(resp.ElapsedNS)/1e6)
	remoteTop, err := remote.Topology(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(orwlplace.RenderAssignment(remoteTop, resp.Assignment, names))

	// A recurring phase is served from the daemon's mapping cache (the
	// comparison above already warmed this key on the default machine).
	again, err := orwlplace.PlaceOn(ctx, remote, orwlplace.TreeMatch, mat, *stages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second request: cache hit %v (daemon cache: %d hits, %d misses)\n",
		again.CacheHit, again.Cache.Hits, again.Cache.Misses)

	// --- Worker clients: stage s reads stage s-1's location and writes
	// its own, iteratively, each on the PU the remote mapping assigned.
	// Writer-first order is established by queueing the writes in stage
	// order before any reads.
	writerReady := make([]chan struct{}, *stages)
	for i := range writerReady {
		writerReady[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for s := 0; s < *stages; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := orwlnet.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			// Against an external daemon the locations exist with
			// whatever size its -loc flags said; make sure ours fit.
			if err := c.Scale(names[s], 8); err != nil {
				log.Fatal(err)
			}
			write, err := c.Insert(names[s], orwl.Write)
			if err != nil {
				log.Fatal(err)
			}
			close(writerReady[s])
			var read *orwlnet.RemoteHandle
			if s > 0 {
				<-writerReady[s-1]
				read, err = c.Insert(names[s-1], orwl.Read)
				if err != nil {
					log.Fatal(err)
				}
			}
			for r := 0; r < *rounds; r++ {
				carry := byte(r)
				if s > 0 {
					if err := read.Section(true, func(h *orwlnet.RemoteHandle) error {
						data, err := h.Read()
						if err != nil {
							return err
						}
						carry = data[0]
						return nil
					}); err != nil {
						log.Fatal(err)
					}
				}
				if err := write.Section(true, func(h *orwlnet.RemoteHandle) error {
					return h.Write([]byte{carry + 1})
				}); err != nil {
					log.Fatal(err)
				}
				if s == *stages-1 {
					fmt.Printf("round %d: value %d after %d hops (stage on pu %d)\n",
						r, carry+1, *stages, resp.Assignment.ComputePU[s])
				}
			}
		}(s)
	}
	wg.Wait()
	if owner != nil {
		ins, grants, rels := owner.ControlStats()
		fmt.Printf("server control events: %d inserts, %d grants, %d releases\n", ins, grants, rels)
	}
}
