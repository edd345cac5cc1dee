package orwlnet

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"orwlplace/internal/orwl"
)

// startServer exports the given locations on a loopback listener and
// returns the address and a cleanup function.
func startServer(t *testing.T, locs map[string]*orwl.Location) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, locs)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

func locations(t *testing.T, names ...string) map[string]*orwl.Location {
	t.Helper()
	p := orwl.MustProgram(1, names...)
	out := make(map[string]*orwl.Location, len(names))
	for _, n := range names {
		out[n] = p.Location(orwl.Loc(0, n))
	}
	return out
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil, map[string]*orwl.Location{}); err == nil {
		t.Error("accepted nil listener")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if _, err := NewServer(lis, nil); err == nil {
		t.Error("accepted empty location map")
	}
}

func TestScaleSizeRoundTrip(t *testing.T) {
	addr := startServer(t, locations(t, "data"))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Scale("data", 128); err != nil {
		t.Fatal(err)
	}
	size, err := c.Size("data")
	if err != nil {
		t.Fatal(err)
	}
	if size != 128 {
		t.Errorf("size = %d", size)
	}
	if err := c.Scale("data", -1); err == nil {
		t.Error("accepted negative size")
	}
	if err := c.Scale("nope", 8); err == nil {
		t.Error("accepted unknown location")
	}
	if _, err := c.Size("nope"); err == nil {
		t.Error("size of unknown location accepted")
	}
}

func TestRemoteWriteReadExclusion(t *testing.T) {
	locs := locations(t, "data")
	locs["data"].Scale(8)
	addr := startServer(t, locs)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, err := c.Insert("data", orwl.Write)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Insert("data", orwl.Read)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Acquire(); err != nil {
		t.Fatal(err)
	}
	data, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:4], []byte{1, 2, 3, 4}) {
		t.Errorf("read %v", data)
	}
	if err := r.Write([]byte{9}); err == nil {
		t.Error("write on read handle accepted")
	}
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteHandleStateErrors(t *testing.T) {
	locs := locations(t, "data")
	locs["data"].Scale(4)
	addr := startServer(t, locs)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h, err := c.Insert("data", orwl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(); err == nil {
		t.Error("read before acquire accepted")
	}
	if err := h.Release(); err == nil {
		t.Error("release before acquire accepted")
	}
	if err := h.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := h.Acquire(); err == nil {
		t.Error("double acquire accepted")
	}
	if err := h.Write(make([]byte, 100)); err == nil {
		t.Error("oversized write accepted")
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if err := h.Acquire(); err == nil {
		t.Error("acquire on spent handle accepted")
	}
	if _, err := c.Insert("data", orwl.Mode(9)); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestRemotePipelineAcrossClients(t *testing.T) {
	// Listing 1 across "processes": each stage is a separate client
	// connection; data flows through a chain of remote locations using
	// iterative handles.
	const stages = 4
	const rounds = 8
	names := make([]string, stages)
	for i := range names {
		names[i] = fmt.Sprintf("slot%d", i)
	}
	locs := locations(t, names...)
	for _, l := range locs {
		l.Scale(8)
	}
	addr := startServer(t, locs)

	var wg sync.WaitGroup
	errs := make([]error, stages)
	results := make([]byte, rounds)
	// Remote inserts are ordered by arrival, so the writer-first FIFO
	// order must be established explicitly, before any acquire — as
	// ORWL's initialisation phase does: stage s announces its write
	// insertion before stage s+1 queues its read, and starts its rounds
	// only once that read is queued (a release-reinsert on a queue
	// holding only the writer would re-grant the writer, and the reader
	// would miss rounds).
	writerQueued := make([]chan struct{}, stages)
	readerQueued := make([]chan struct{}, stages)
	for i := range writerQueued {
		writerQueued[i] = make(chan struct{})
		readerQueued[i] = make(chan struct{})
	}
	close(readerQueued[stages-1]) // the last slot has no reader
	for s := 0; s < stages; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = func() error {
				c, err := Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				// Writer-first on own slot, reader on the previous.
				write, err := c.Insert(names[s], orwl.Write)
				if err != nil {
					return err
				}
				close(writerQueued[s])
				var read *RemoteHandle
				if s > 0 {
					<-writerQueued[s-1]
					read, err = c.Insert(names[s-1], orwl.Read)
					if err != nil {
						return err
					}
					close(readerQueued[s-1])
				}
				<-readerQueued[s]
				for r := 0; r < rounds; r++ {
					var carry byte
					if s > 0 {
						if err := read.Section(true, func(h *RemoteHandle) error {
							data, err := h.Read()
							if err != nil {
								return err
							}
							carry = data[0]
							return nil
						}); err != nil {
							return err
						}
					} else {
						carry = byte(r)
					}
					if err := write.Section(true, func(h *RemoteHandle) error {
						return h.Write([]byte{carry + 1})
					}); err != nil {
						return err
					}
					if s == stages-1 {
						results[r] = carry + 1
					}
				}
				return nil
			}()
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("stage %d: %v", s, err)
		}
	}
	// Stage s adds 1 per hop: final value for round r is r + stages...
	// except pipelining: stage s's iteration r reads stage s-1's value
	// from ITS iteration r (alternating FIFO), so the final is r+stages.
	for r := 0; r < rounds; r++ {
		if int(results[r]) != r+stages {
			t.Errorf("round %d result = %d, want %d", r, results[r], r+stages)
		}
	}
}

func TestConcurrentClientsOnOneLocation(t *testing.T) {
	locs := locations(t, "ctr")
	locs["ctr"].Scale(1)
	addr := startServer(t, locs)

	const clients = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				c, err := Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				for k := 0; k < iters; k++ {
					h, err := c.Insert("ctr", orwl.Write)
					if err != nil {
						return err
					}
					if err := h.Acquire(); err != nil {
						return err
					}
					data, err := h.Read()
					if err != nil {
						return err
					}
					if err := h.Write([]byte{data[0] + 1}); err != nil {
						return err
					}
					if err := h.Release(); err != nil {
						return err
					}
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// The exclusive FIFO makes the increments atomic: 80 increments
	// modulo 256.
	if got := locs["ctr"].Size(); got != 1 {
		t.Fatalf("size = %d", got)
	}
	final, err := func() (byte, error) {
		c, err := Dial(addr)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		h, err := c.Insert("ctr", orwl.Read)
		if err != nil {
			return 0, err
		}
		if err := h.Acquire(); err != nil {
			return 0, err
		}
		defer h.Release()
		data, err := h.Read()
		if err != nil {
			return 0, err
		}
		return data[0], nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	if int(final) != clients*iters {
		t.Errorf("counter = %d, want %d", final, clients*iters)
	}
}

func TestClientFailsAfterServerClose(t *testing.T) {
	locs := locations(t, "data")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, locs)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Scale("data", 4); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Subsequent calls must fail, not hang.
	if err := c.Scale("data", 8); err == nil {
		t.Error("call after server close succeeded")
	}
}

func TestProtocolFraming(t *testing.T) {
	var buf bytes.Buffer
	in := message{callID: 42, op: opInsert, payload: []byte("hello")}
	if err := writeMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.callID != 42 || out.op != opInsert || string(out.payload) != "hello" {
		t.Errorf("round trip = %+v", out)
	}
	// Corrupt frame length.
	if _, err := readMessage(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})); err == nil {
		t.Error("accepted giant frame")
	}
	if _, err := readMessage(bytes.NewReader([]byte{1, 0, 0, 0, 9})); err == nil {
		t.Error("accepted undersized frame")
	}
	// String codec.
	p := putString(nil, "abc")
	s, rest, err := getString(p)
	if err != nil || s != "abc" || len(rest) != 0 {
		t.Errorf("string codec: %q %v %v", s, rest, err)
	}
	if _, _, err := getString([]byte{5, 0, 'x'}); err == nil {
		t.Error("accepted truncated string")
	}
	if _, _, err := getUint64([]byte{1, 2}); err == nil {
		t.Error("accepted truncated integer")
	}
}
