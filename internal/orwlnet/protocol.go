// Package orwlnet provides remote access to ORWL locations over TCP,
// reproducing the distributed face of the reference library: in the
// ORWL model a location may live in another process or on another
// node, and tasks interact with it through exactly the same
// insert/acquire/release FIFO discipline. The paper's evaluation is
// single-SMP, so this package is the "extension" substrate: it lets
// the examples and tests exercise location sharing across process
// boundaries without changing the protocol semantics.
//
// The wire protocol is deliberately small: length-prefixed binary
// messages, one multiplexed TCP connection per client, each call
// tagged with an id so long-blocking operations (Await) do not stall
// unrelated calls.
package orwlnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"orwlplace/internal/ctrlplane"
)

// Operation codes. Every op but opHello requires the opHello handshake
// first (see DESIGN.md, PROTOCOL).
const (
	opScale = iota + 1
	opSize
	opInsert
	opAwait
	opRead
	opWrite
	opRelease
	opReleaseReinsert
	// opHello agrees the protocol version. Request payload: two bytes
	// [min, max] — the version range the client speaks. Response
	// payload: one byte, protoVersion, when it lies in the range.
	opHello
	// opPlaceCompute runs a placement request (placewire.go codecs).
	opPlaceCompute
	// opTopology fetches the served machine as canonical topology JSON.
	opTopology
	// opPlaceStats fetches the placement service description/counters.
	opPlaceStats
	// Opcode 13 is retired, not reused, so every later opcode keeps its
	// number; the server refuses it as an unknown op.
	_
	// opFleetLease registers this client's (machine, peer, task-range)
	// identity with the daemon's control plane. The response carries a
	// server-assigned lease id that subsequent opObservedReport frames
	// name.
	opFleetLease
	// opObservedReport ships one observed-traffic window (delta, not
	// cumulative) for a lease, matrix in the compact encoding. The
	// daemon merges it at the lease's task offset into the machine's
	// fleet-wide observed matrix.
	opObservedReport
	// opWatchRemaps turns the connection into a remap subscription:
	// the response acknowledges with the current adopted mapping (if
	// newer than the client's since-epoch), and every later adoption is
	// pushed as an unsolicited frame with the same call id and frame
	// layout.
	opWatchRemaps
)

// protoVersion is the one protocol version: the byte opHello agrees
// on and the byte every payload starts with. A layout change bumps it
// and replaces the old layout; a build speaks exactly one version.
const protoVersion = 11

// Response status codes: the byte after a response frame's call id.
// Every code but statusOK carries the error's text as its payload; the
// codes past statusError name the failures a caller branches on, and
// the client turns each back into its sentinel (statusErrors).
const (
	statusOK = iota
	statusError
	statusVersion
	statusUnknownMatrix
	statusUnknownLease
	statusRateLimited
)

// Sentinel errors a caller branches on with errors.Is. The exported
// ones cross the wire as status codes; their text is the phrase the
// wrapping message embeds, so a coded error prints as it always did.
var (
	// ErrVersion refuses a peer that does not speak protoVersion: a
	// hello range without it, a payload with another version byte, or
	// an op sent before the handshake.
	ErrVersion = errors.New("protocol version mismatch")
	// ErrUnknownMatrix refuses a fingerprint-only request whose matrix
	// the server's seen-matrix table no longer holds (evicted, or the
	// daemon restarted); the client resends the body.
	ErrUnknownMatrix = errors.New("unknown matrix fingerprint")

	// errBadFrame refuses a frame length outside [9, maxMessage].
	errBadFrame = errors.New("orwlnet: bad frame")
	// errAbsurd refuses a count its payload cannot hold.
	errAbsurd = errors.New("orwlnet: absurd")
	// errUnknownOp refuses an opcode the server does not serve.
	errUnknownOp = errors.New("unknown op")
	// errConnLost fails every call on a connection whose read side died.
	errConnLost = errors.New("orwlnet: connection lost")
)

// statusErrors maps each coded status to its sentinel.
var statusErrors = [...]error{
	statusVersion:       ErrVersion,
	statusUnknownMatrix: ErrUnknownMatrix,
	statusUnknownLease:  ctrlplane.ErrUnknownLease,
	statusRateLimited:   ctrlplane.ErrRateLimited,
}

// statusOf picks the status code a handler error is answered with.
func statusOf(err error) byte {
	for code, sentinel := range statusErrors {
		if sentinel != nil && errors.Is(err, sentinel) {
			return byte(code)
		}
	}
	return statusError
}

// serverError is a non-OK response as the client sees it: the server's
// text, matching its status code's sentinel under errors.Is.
type serverError struct {
	text     string
	sentinel error // nil for plain statusError
}

func (e *serverError) Error() string { return "orwlnet: server: " + e.text }
func (e *serverError) Unwrap() error { return e.sentinel }

// responseError converts a non-OK response frame into its error.
func responseError(m message) error {
	e := &serverError{text: string(m.payload)}
	if int(m.op) < len(statusErrors) {
		e.sentinel = statusErrors[m.op]
	}
	return e
}

// maxMessage bounds a single message (64 MiB), protecting both sides
// against corrupt length prefixes.
const maxMessage = 64 << 20

// message is one framed request or response.
type message struct {
	callID  uint64
	op      byte // request: operation; response: status
	payload []byte
}

// writeCoalesceLimit is the payload size up to which a frame's header
// and payload are copied into one buffer and written with a single
// Write call. The compact frames (fingerprint requests,
// varint responses) are far below it, so the warm path costs one
// syscall per frame instead of two; big payloads keep the
// two-write shape rather than paying a copy.
const writeCoalesceLimit = 16 << 10

// writeMessage frames and writes m.
func writeMessage(w io.Writer, m message) error {
	if len(m.payload) > maxMessage {
		return fmt.Errorf("orwlnet: message payload %d exceeds limit", len(m.payload))
	}
	var head [4 + 8 + 1]byte
	binary.LittleEndian.PutUint32(head[:], uint32(8+1+len(m.payload)))
	binary.LittleEndian.PutUint64(head[4:], m.callID)
	head[12] = m.op
	if n := len(m.payload); n > 0 && n <= writeCoalesceLimit {
		frame := getPayloadBuf()
		frame = append(frame, head[:]...)
		frame = append(frame, m.payload...)
		_, err := w.Write(frame)
		putPayloadBuf(frame)
		return err
	}
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	if len(m.payload) > 0 {
		if _, err := w.Write(m.payload); err != nil {
			return err
		}
	}
	return nil
}

// frameChunk bounds how far a frame body is allocated ahead of its
// bytes: past it a body grows at most by what has arrived, so a stalled
// 64 MiB length prefix costs 64 KiB.
const frameChunk = 64 << 10

// readMessage reads one framed message (a partial one with an error).
// A body for which pooled (nil: none) reports true is read into a
// payloadPool buffer, which its consumer recycles once it has copied
// out what it keeps.
func readMessage(r io.Reader, pooled func(callID uint64, op byte) bool) (message, error) {
	var head [13]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return message{}, err
	}
	n := int(binary.LittleEndian.Uint32(head[:])) - 9
	if n < 0 || n > maxMessage-9 {
		return message{}, fmt.Errorf("%w length %d", errBadFrame, n+9)
	}
	_, err := io.ReadFull(r, head[4:])
	m := message{callID: binary.LittleEndian.Uint64(head[4:]), op: head[12]}
	if err == nil && n > 0 && pooled != nil && pooled(m.callID, m.op) {
		m.payload = getPayloadBuf()
	}
	for err == nil && len(m.payload) < n {
		m.payload = slices.Grow(m.payload, min(n-len(m.payload), max(len(m.payload), frameChunk)))
		var k int
		k, err = io.ReadFull(r, m.payload[len(m.payload):min(n, cap(m.payload))])
		m.payload = m.payload[:len(m.payload)+k]
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // only a stream cut between frames is io.EOF
	}
	return m, err
}
