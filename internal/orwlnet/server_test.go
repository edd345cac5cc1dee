package orwlnet

import (
	"errors"
	"net"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/orwl"
)

// Handler-level tests covering protocol error paths without a network.

func testServer(t *testing.T) (*Server, *connState) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	locs := locations(t, "data")
	locs["data"].Scale(8)
	srv, err := NewServer(lis, locs)
	if err != nil {
		t.Fatal(err)
	}
	st := &connState{reqs: make(map[uint64]*orwl.RawRequest)}
	st.hello.Store(true) // past the handshake
	return srv, st
}

func TestHandleUnknownOp(t *testing.T) {
	srv, st := testServer(t)
	if _, _, err := srv.handle(st, message{op: 99}); !errors.Is(err, errUnknownOp) {
		t.Errorf("unknown op: err = %v, want errUnknownOp", err)
	}
}

func TestHandleTruncatedPayloads(t *testing.T) {
	srv, st := testServer(t)
	cases := []message{
		{op: opScale, payload: nil},
		{op: opScale, payload: codec.PutString(nil, "data")}, // missing size
		{op: opSize, payload: nil},
		{op: opInsert, payload: nil},
		{op: opInsert, payload: codec.PutString(nil, "data")}, // missing mode
		{op: opAwait, payload: []byte{1}},
		{op: opRead, payload: []byte{1}},
		{op: opWrite, payload: []byte{1}},
		{op: opRelease, payload: []byte{1}},
		{op: opReleaseReinsert, payload: []byte{1}},
	}
	for i, m := range cases {
		if _, _, err := srv.handle(st, m); err == nil {
			t.Errorf("case %d (op %d): truncated payload accepted", i, m.op)
		}
	}
}

func TestHandleUnknownLocationAndHandle(t *testing.T) {
	srv, st := testServer(t)
	if _, _, err := srv.handle(st, message{op: opInsert, payload: append(codec.PutString(nil, "nope"), byte(orwl.Read))}); err == nil {
		t.Error("insert on unknown location accepted")
	}
	if _, _, err := srv.handle(st, message{op: opAwait, payload: codec.PutUint64(nil, 12345)}); err == nil {
		t.Error("await on unknown handle accepted")
	}
	if _, _, err := srv.handle(st, message{op: opRelease, payload: codec.PutUint64(nil, 12345)}); err == nil {
		t.Error("release on unknown handle accepted")
	}
}

func TestHandleReadWriteWithoutGrant(t *testing.T) {
	srv, st := testServer(t)
	// Queue a writer that holds the grant, then a reader that is not
	// yet granted.
	resp, _, err := srv.handle(st, message{op: opInsert, payload: append(codec.PutString(nil, "data"), byte(orwl.Write))})
	if err != nil {
		t.Fatal(err)
	}
	wID, _, _ := codec.GetUint64(resp)
	resp, _, err = srv.handle(st, message{op: opInsert, payload: append(codec.PutString(nil, "data"), byte(orwl.Read))})
	if err != nil {
		t.Fatal(err)
	}
	rID, _, _ := codec.GetUint64(resp)
	// The reader has no grant yet: read must fail rather than block.
	if _, _, err := srv.handle(st, message{op: opRead, payload: codec.PutUint64(nil, rID)}); err == nil {
		t.Error("read without grant accepted")
	}
	if _, _, err := srv.handle(st, message{op: opWrite, payload: codec.PutUint64(nil, rID)}); err == nil {
		t.Error("write without grant accepted")
	}
	// Writer: write works, oversized write fails.
	if _, _, err := srv.handle(st, message{op: opWrite, payload: append(codec.PutUint64(nil, wID), 1, 2)}); err != nil {
		t.Errorf("writer write failed: %v", err)
	}
	big := append(codec.PutUint64(nil, wID), make([]byte, 100)...)
	if _, _, err := srv.handle(st, message{op: opWrite, payload: big}); err == nil {
		t.Error("oversized write accepted")
	}
	// Release the writer; reader becomes granted and read succeeds.
	if _, _, err := srv.handle(st, message{op: opRelease, payload: codec.PutUint64(nil, wID)}); err != nil {
		t.Fatal(err)
	}
	data, _, err := srv.handle(st, message{op: opRead, payload: codec.PutUint64(nil, rID)})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 || data[0] != 1 || data[1] != 2 {
		t.Errorf("read = %v", data)
	}
	// Write on a read handle fails even with the grant.
	if _, _, err := srv.handle(st, message{op: opWrite, payload: append(codec.PutUint64(nil, rID), 9)}); err == nil {
		t.Error("write on read handle accepted")
	}
}

func TestServerDoubleCloseAndAddr(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, locations(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr().String() == "" {
		t.Error("empty address")
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve after Close = %v, want nil", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}
