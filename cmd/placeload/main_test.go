package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// serve starts a placement daemon for TinyFlat on a loopback port.
func serve(t *testing.T) (addr string, srv *orwlnet.Server) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("tinyflat", topology.TinyFlat()); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err = orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

// TestRunFailsWhenCallsFail closes the daemon mid-window: the calls
// before the close succeed, the rest fail, and run must report the
// failures as an error rather than exit cleanly on the survivors.
func TestRunFailsWhenCallsFail(t *testing.T) {
	addr, srv := serve(t)
	stop := time.AfterFunc(200*time.Millisecond, func() { srv.Close() })
	defer stop.Stop()
	err := run(addr, "", 4, 2, 4, 600*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "placement calls failed") {
		t.Fatalf("run against a daemon closed mid-window = %v, want a failed-call error", err)
	}
}

// TestRunCleanSelfServed is the self-served run: an in-process daemon
// that answers every call, so run returns nil.
func TestRunCleanSelfServed(t *testing.T) {
	if err := run("", "tinyflat", 4, 2, 4, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
