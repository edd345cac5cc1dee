package orwlplace_test

// Facade tests: the public surface external consumers use instead of
// internal/ — in-process service construction, topology discovery, and
// the remote daemon path end to end.

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"orwlplace"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

func TestFacadeDiscovery(t *testing.T) {
	machines := orwlplace.Machines()
	if len(machines) == 0 {
		t.Fatal("no machines discoverable")
	}
	for _, name := range machines {
		top, err := orwlplace.Machine(name)
		if err != nil {
			t.Fatalf("Machine(%q): %v", name, err)
		}
		if top.NumPUs() == 0 {
			t.Errorf("machine %q has no PUs", name)
		}
	}
	if _, err := orwlplace.Machine("betz-IV"); err == nil {
		t.Error("fictional machine discovered")
	}
	if host := orwlplace.HostTopology(); host.NumPUs() < 1 {
		t.Error("host topology has no PUs")
	}
	found := false
	for _, s := range orwlplace.Strategies() {
		if s == orwlplace.TreeMatch {
			found = true
		}
	}
	if !found {
		t.Errorf("strategy list %v misses treematch", orwlplace.Strategies())
	}
}

func TestFacadeInProcessService(t *testing.T) {
	top, err := orwlplace.Machine("tinyflat")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := orwlplace.NewService(top)
	if err != nil {
		t.Fatal(err)
	}
	mat := orwlplace.NewMatrix(4)
	mat.AddSym(0, 1, 1000)
	mat.AddSym(2, 3, 1000)
	resp, err := orwlplace.PlaceOn(context.Background(), svc, orwlplace.TreeMatch, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Assignment.Entities() != 4 {
		t.Fatalf("entities = %d", resp.Assignment.Entities())
	}
	render := orwlplace.RenderAssignment(top, resp.Assignment, []string{"a", "b", "c", "d"})
	if !strings.Contains(render, "TinyFlat") {
		t.Errorf("render misses machine name:\n%s", render)
	}
}

func TestFacadeRemoteDaemon(t *testing.T) {
	// Spin up what `orwlnetd -place -machine tinyht` runs.
	top, err := orwlplace.Machine("tinyht")
	if err != nil {
		t.Fatal(err)
	}
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
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	remote, err := orwlplace.DialPlacement(ctx, lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	var _ orwlplace.Service = remote // the stub satisfies the facade contract

	mat := orwlplace.NewMatrix(6)
	for i := 1; i < 6; i++ {
		mat.AddSym(i-1, i, float64(100*i))
	}
	resp, err := orwlplace.PlaceOn(ctx, remote, orwlplace.TreeMatch, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Assignment == nil || resp.Assignment.Entities() != 6 {
		t.Fatalf("assignment = %+v", resp.Assignment)
	}
	stats, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TopologySignature != placement.Signature(topology.TinyHT()) {
		t.Error("remote signature mismatch")
	}
	fetched, err := remote.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.Attrs.Name != "TinyHT" {
		t.Errorf("fetched machine %q", fetched.Attrs.Name)
	}

	// The unbound baseline works remotely too and skips diagnostics.
	unbound, err := orwlplace.PlaceOn(ctx, remote, orwlplace.Unbound, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !unbound.Assignment.Unbound || unbound.Cost != 0 {
		t.Errorf("unbound response = %+v", unbound)
	}
}

func TestFacadeFleet(t *testing.T) {
	fleet, err := orwlplace.NewFleet([]string{"tinyht", "tinyflat"})
	if err != nil {
		t.Fatal(err)
	}
	var _ orwlplace.Service = fleet // the fleet satisfies the facade contract
	if got := fleet.Machines(); len(got) != 2 || got[0] != "tinyht" {
		t.Fatalf("fleet machines = %v", got)
	}
	if _, err := orwlplace.NewFleet(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := orwlplace.NewFleet([]string{"betz-IV"}); err == nil {
		t.Error("fictional fleet machine accepted")
	}

	// Serve the fleet like `orwlnetd -place -machine tinyht -machine
	// tinyflat` and compare machines through the facade, one Place each.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	remote, err := orwlplace.DialPlacement(ctx, lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	stats, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Machines) != 2 {
		t.Fatalf("remote fleet machines = %v", stats.Machines)
	}
	mat := orwlplace.NewMatrix(4)
	for i := 1; i < 4; i++ {
		mat.AddSym(i-1, i, 100)
	}
	resps, err := orwlplace.PlaceAcross(ctx, remote, orwlplace.TreeMatch, mat, 0, stats.Machines)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("PlaceAcross answered %d slots", len(resps))
	}
	for i, resp := range resps {
		if resp.Err != "" || resp.Assignment == nil || resp.Machine != stats.Machines[i] {
			t.Errorf("slot %d = %+v, want assignment from %q", i, resp, stats.Machines[i])
		}
	}

	// An unnamed request lands on the default machine.
	def, err := orwlplace.PlaceOn(ctx, remote, orwlplace.TreeMatch, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def.Machine != "tinyht" || !def.CacheHit {
		t.Errorf("default place = machine %q cache hit %v, want a tinyht hit", def.Machine, def.CacheHit)
	}
}

func TestDialPlacementRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// A closed port: DialPlacement must fail, not hang.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	if _, err := orwlplace.DialPlacement(ctx, addr); err == nil {
		t.Fatal("dial against closed port succeeded")
	}
}
