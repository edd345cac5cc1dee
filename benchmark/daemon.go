package main

import (
	"fmt"
	"net"

	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// daemon is the in-process `orwlnetd -place -adaptive` every workload
// drives: a fleet placement service, a control plane the benchmark steps
// epoch by epoch (Controller.Run's ticker is never part of a measured
// interval), and a server on a loopback TCP port. It is never restarted.
type daemon struct {
	fleet *placement.MultiService
	ctrl  *ctrlplane.Controller
	srv   *orwlnet.Server
	addr  string
	done  chan struct{}
}

// spareMachine is a second name for the fleet workloads' topology: the
// traced pass reports under a lease on it to time the report round trip
// without merging anything into the machine under test.
const spareMachine = "spare"

// fleetAdaptive is the controller configuration of the fleet workloads.
// With the default horizon every shift's modeled gain stays below its
// migration cost and nothing is ever adopted.
var fleetAdaptive = placement.AdaptiveConfig{Horizon: 500}

// startDaemon serves the named machines (the first is the default);
// spare adds spareMachine on the default machine's topology.
func startDaemon(machines []string, spare bool) (*daemon, error) {
	fleet := placement.NewMultiService()
	for i, name := range machines {
		top, err := topology.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := fleet.AddMachine(name, top); err != nil {
			return nil, err
		}
		if i == 0 && spare {
			if err := fleet.AddMachine(spareMachine, top); err != nil {
				return nil, err
			}
		}
	}
	ctrl, err := ctrlplane.NewController(fleet, ctrlplane.Config{Adaptive: fleetAdaptive, StaleAfter: -1})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet), orwlnet.WithControlPlane(ctrl))
	if err != nil {
		lis.Close()
		return nil, err
	}
	d := &daemon{fleet: fleet, ctrl: ctrl, srv: srv, addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = srv.Serve() // returns once Close shuts the listener
	}()
	return d, nil
}

// stop closes the server and waits for its accept loop to end.
func (d *daemon) stop() {
	d.srv.Close()
	<-d.done
}

// topology returns the topology object the daemon serves a machine
// with, for the benchmark's twins to share.
func (d *daemon) topology(machine string) (*topology.Topology, error) {
	svc, err := d.fleet.MachineService(machine)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	return svc.Engine().Topology(), nil
}
