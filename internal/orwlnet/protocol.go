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
	// opPlaceBatch runs a slice of placement requests in one round
	// trip, fanned across the server's fleet machines.
	opPlaceBatch
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
const protoVersion = 6

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
	// errDial fails a DialContext whose transport connect failed.
	errDial = errors.New("orwlnet: dial")
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
// syscall per frame instead of two; big dense payloads keep the
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

// readMessage reads one framed message.
func readMessage(r io.Reader) (message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return message{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 9 || n > maxMessage {
		return message{}, fmt.Errorf("%w length %d", errBadFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return message{}, err
	}
	return message{
		callID:  binary.LittleEndian.Uint64(body),
		op:      body[8],
		payload: body[9:],
	}, nil
}

// Payload encoding helpers.

func putString(dst []byte, s string) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	dst = append(dst, l[:]...)
	return append(dst, s...)
}

func getString(src []byte) (string, []byte, error) {
	if len(src) < 2 {
		return "", nil, fmt.Errorf("orwlnet: truncated string")
	}
	n := int(binary.LittleEndian.Uint16(src))
	if len(src) < 2+n {
		return "", nil, fmt.Errorf("orwlnet: truncated string body")
	}
	return string(src[2 : 2+n]), src[2+n:], nil
}

func putUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func getUint64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("orwlnet: truncated integer")
	}
	return binary.LittleEndian.Uint64(src), src[8:], nil
}

// putUvarint appends v in the unsigned LEB128 varint encoding — the
// compact integer of the sparse-matrix payload (gaps, run
// lengths and byte-reversed float bits are all small or trailing-zero
// heavy, so most encode in 1-3 bytes instead of 8).
func putUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func getUvarint(src []byte) (uint64, []byte, error) {
	v, n, ok := decodeUvarint(src)
	if !ok {
		return 0, nil, fmt.Errorf("orwlnet: truncated or overlong varint")
	}
	return v, src[n:], nil
}

// decodeUvarint is binary.Uvarint with the two failure modes (buffer
// exhausted, 64-bit overflow) collapsed into ok=false.
func decodeUvarint(src []byte) (uint64, int, bool) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, false
	}
	return v, n, true
}
