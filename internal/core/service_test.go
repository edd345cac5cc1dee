package core

import (
	"net"
	"testing"

	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// startDaemon runs a placement-only orwlnet server for the machine and
// returns a connected remote service stub.
func startDaemon(t *testing.T, top *topology.Topology) *orwlnet.RemoteService {
	t.Helper()
	eng, err := placement.NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := placement.NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(svc))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	c, err := orwlnet.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.PlacementService()
}

// TestThreeStepAPIOverRemoteService is the paper's three-step API with
// the compute step running in a remote placement daemon: the program,
// extraction and binding stay local, only the mapping crosses the
// wire.
func TestThreeStepAPIOverRemoteService(t *testing.T) {
	remote := startDaemon(t, topology.Fig2Machine())
	prog := orwlMustPipeline(t, 6)
	mod, err := Attach(prog, nil, WithService(remote))
	if err != nil {
		t.Fatal(err)
	}
	if mod.Engine() != nil {
		t.Error("remote module leaked a local engine")
	}
	mod.DependencyGet()
	if err := mod.AffinityCompute(); err != nil {
		t.Fatal(err)
	}
	if err := mod.AffinitySet(); err != nil {
		t.Fatal(err)
	}
	if prog.Binding() == nil {
		t.Fatal("remote placement bound nothing")
	}
	resp := mod.LastResponse()
	if resp == nil {
		t.Fatal("no response recorded")
	}
	if resp.Assignment == nil || resp.Assignment.Strategy != placement.TreeMatch {
		t.Errorf("response assignment = %+v", resp.Assignment)
	}

	// The binding matches what a local module computes on the same
	// machine.
	localProg := orwlMustPipeline(t, 6)
	localMod, err := Attach(localProg, topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	localMod.DependencyGet()
	if err := localMod.AffinityCompute(); err != nil {
		t.Fatal(err)
	}
	if err := localMod.AffinitySet(); err != nil {
		t.Fatal(err)
	}
	local, viaRemote := localProg.Binding(), prog.Binding()
	if len(local) != len(viaRemote) {
		t.Fatalf("local binding %v, remote %v", local, viaRemote)
	}
	for task, pu := range local {
		if viaRemote[task] != pu {
			t.Fatalf("task %d: local pu %d, remote pu %d", task, pu, viaRemote[task])
		}
	}

	// Mapping() fetches the machine from the daemon.
	if mp := mod.Mapping(); mp == nil || mp.Top.Attrs.Name != "Fig2-4socket" {
		t.Errorf("Mapping() = %+v", mp)
	}
}

func TestAttachRemoteValidation(t *testing.T) {
	remote := startDaemon(t, topology.TinyHT())
	prog := orwlMustPipeline(t, 4)

	if _, err := Attach(prog, nil, WithService(remote), WithStrategy("nope")); err == nil {
		t.Error("unknown strategy accepted against remote service")
	}
	// Mismatched local topology expectation: the daemon serves TinyHT.
	if _, err := Attach(prog, topology.TinyFlat(), WithService(remote)); err == nil {
		t.Error("topology mismatch with remote service accepted")
	}
	// Matching topology is fine.
	if _, err := Attach(prog, topology.TinyHT(), WithService(remote)); err != nil {
		t.Errorf("matching topology rejected: %v", err)
	}
	// WithEngine and WithService together are ambiguous.
	eng, err := placement.NewEngine(topology.TinyHT())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(prog, nil, WithService(remote), WithEngine(eng)); err == nil {
		t.Error("WithEngine+WithService accepted")
	}
}
