package orwlnet

import (
	"context"
	"strings"
	"testing"

	"orwlplace/internal/placement"
)

// A string field's length prefix is two bytes. A longer name written
// whole behind a wrapped prefix has its tail read as the following
// fields: a 70,000-byte peer decodes as a 4,464-byte one with base,
// count and token 97.

// TestWireEncodersRefuseLongNames: every request encoder refuses a
// name over 65,535 bytes, and a live client sends nothing for it.
func TestWireEncodersRefuseLongNames(t *testing.T) {
	long := strings.Repeat("a", 70000)
	const tooLong = "codec: string of 70000 bytes exceeds the 65535-byte limit"
	place := func(machine, strategy string) *placement.PlaceRequest {
		return &placement.PlaceRequest{Machine: machine, Strategy: strategy, Entities: 4}
	}
	cases := []struct {
		name string
		enc  func() error
		want string
	}{
		{"lease machine", func() error { _, err := encodeFleetLeaseRequest(nil, long, "alpha", 0, 4, 0); return err }, tooLong},
		{"lease peer", func() error { _, err := encodeFleetLeaseRequest(nil, "fig2", long, 0, 4, 0); return err }, tooLong},
		{"place machine", func() error { _, _, err := encodePlaceRequest(nil, place(long, "treematch"), nil); return err }, tooLong},
		{"place strategy", func() error { _, _, err := encodePlaceRequest(nil, place("fig2", long), nil); return err }, tooLong},
		{"watch machine", func() error { _, err := encodeWatchRequest(nil, long, 0); return err }, tooLong},
	}
	for _, c := range cases {
		if err := c.enc(); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	// A name at the limit crosses whole.
	limit := long[:65535]
	b, err := encodeFleetLeaseRequest(nil, limit, limit, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if machine, peer, base, count, token, err := decodeFleetLeaseRequest(b); err != nil || machine != limit || peer != limit || base != 3 || count != 4 || token != 5 {
		t.Fatalf("limit-length lease decoded to (%d, %d bytes, %d, %d, %d, %v)", len(machine), len(peer), base, count, token, err)
	}

	// A live client fails each call without sending a byte.
	srv, addr := startFixtureServer(t)
	ctx := context.Background()
	svc, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := dialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := srv.bytesIn.Load()
	calls := map[string]func() error{
		"RegisterLease": func() error { _, err := svc.RegisterLease(ctx, "fig2", long, 0, 4); return err },
		"Place":         func() error { _, err := svc.Place(ctx, place(long, "treematch")); return err },
		"WatchRemaps":   func() error { _, err := svc.WatchRemaps(ctx, long); return err },
		"Scale":         func() error { return c.Scale(long, 1) },
		"Size":          func() error { _, err := c.Size(long); return err },
		"Insert":        func() error { _, err := c.Insert(long, 0); return err },
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.HasSuffix(err.Error(), tooLong) {
			t.Errorf("%s: err = %v, want the codec's refusal", name, err)
		}
	}
	if after := srv.bytesIn.Load(); after != before {
		t.Errorf("refused calls delivered %d bytes", after-before)
	}
}
