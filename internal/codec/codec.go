// Package codec is the one binary layout of the program's data: how an
// int, a float, a string, an int slice, a placement assignment and an
// affinity matrix are written as bytes. The placement wire protocol
// (internal/orwlnet) frames its payloads from these fields, and the
// control-plane snapshot (internal/ctrlplane) writes its records from
// the same ones, so a field means the same bytes on the wire and on
// disk. Golden images on both sides pin those bytes.
//
// Encoders are append-style (dst in, extended dst out) so hot paths
// reuse pooled buffers. Decoders take the source and return the value
// with the bytes after it; they refuse truncated or absurd input with
// an error and check every count against the bytes left before they
// allocate by it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// errAbsurd refuses a count its source cannot hold.
var errAbsurd = errors.New("codec: absurd")

// maxString is the longest string PutString carries whole: the length
// prefix is two bytes.
const maxString = 1<<16 - 1

// PutString appends s with a little-endian uint16 length prefix. A
// string longer than maxString is cut to its first maxString bytes, so
// the prefix always matches the body; an encoder that must not send a
// cut string refuses it first (CheckStrings).
func PutString(dst []byte, s string) []byte {
	s = s[:min(len(s), maxString)]
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(s))), s...)
}

// CheckStrings refuses the first of ss that PutString would cut.
func CheckStrings(ss ...string) error {
	for _, s := range ss {
		if len(s) > maxString {
			return fmt.Errorf("codec: string of %d bytes exceeds the %d-byte limit", len(s), maxString)
		}
	}
	return nil
}

func GetString(src []byte) (string, []byte, error) {
	if len(src) < 2 {
		return "", nil, fmt.Errorf("codec: truncated string")
	}
	n := int(binary.LittleEndian.Uint16(src))
	if len(src) < 2+n {
		return "", nil, fmt.Errorf("codec: truncated string body")
	}
	return string(src[2 : 2+n]), src[2+n:], nil
}

func PutUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func GetUint64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("codec: truncated integer")
	}
	return binary.LittleEndian.Uint64(src), src[8:], nil
}

// PutUint64s appends each value fixed-width, in order.
func PutUint64s(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = PutUint64(dst, v)
	}
	return dst
}

// GetUint64s reads one fixed-width value into each destination, in
// order.
func GetUint64s(src []byte, dsts ...*uint64) ([]byte, error) {
	for _, d := range dsts {
		var err error
		if *d, src, err = GetUint64(src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// PutUvarint appends v in the unsigned LEB128 varint encoding — the
// compact integer of the sparse-matrix body (gaps, run lengths and
// byte-reversed float bits are all small or trailing-zero heavy, so
// most encode in 1-3 bytes instead of 8).
func PutUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func GetUvarint(src []byte) (uint64, []byte, error) {
	if len(src) > 0 && src[0] < 0x80 {
		return uint64(src[0]), src[1:], nil // one byte: gaps, run lengths, PU ids
	}
	v, n, ok := decodeUvarint(src)
	if !ok {
		return 0, nil, fmt.Errorf("codec: truncated or overlong varint")
	}
	return v, src[n:], nil
}

// GetUvarints reads one varint into each destination, in order.
func GetUvarints(src []byte, dsts ...*uint64) ([]byte, error) {
	for _, d := range dsts {
		var err error
		if *d, src, err = GetUvarint(src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// decodeUvarint is binary.Uvarint with the two failure modes (buffer
// exhausted, 64-bit overflow) collapsed into ok=false. A varint of at
// most eight bytes with eight readable decodes branch-free from one
// word: the terminating byte is the first with its high bit clear, and
// three mask-and-shift steps pack the 7-bit groups.
func decodeUvarint(src []byte) (uint64, int, bool) {
	if len(src) >= 8 {
		x := binary.LittleEndian.Uint64(src)
		if stop := ^x & 0x8080808080808080; stop != 0 {
			end := bits.TrailingZeros64(stop) + 1 // bits up to the terminator
			x &= 1<<(end&63) - 1 | -(uint64(end) >> 6)
			x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
			x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
			x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
			return x, end >> 3, true
		}
	}
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, false
	}
	return v, n, true
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

func PutFloat64(dst []byte, v float64) []byte {
	return PutUint64(dst, math.Float64bits(v))
}

func PutBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func GetBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, fmt.Errorf("codec: truncated bool")
	}
	return src[0] != 0, src[1:], nil
}

// Zigzag maps a signed int to a varint-friendly unsigned one (small
// magnitudes of either sign stay small; -1, the unbound PU marker,
// becomes 1).
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ZigzagFloat maps float64 bits so that the trailing zero bytes of
// typical volumes (integral byte counts) become leading zeros a varint
// elides: 65536.0 encodes in 3 bytes instead of 10.
func ZigzagFloat(v float64) uint64 {
	return bits.ReverseBytes64(math.Float64bits(v))
}

func UnzigzagFloat(u uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(u))
}

// PutIntSlice encodes a possibly-nil []int as zigzag varints (values
// may be negative, e.g. unbound control PUs): PU indices are small, so
// one byte each instead of eight — an assignment's three slices
// dominate a warm response. Nil and empty are distinguished: the count
// holds 0 for nil and len+1 otherwise.
func PutIntSlice(dst []byte, s []int) []byte {
	if s == nil {
		return PutUvarint(dst, 0)
	}
	dst = PutUvarint(dst, uint64(len(s)+1))
	for _, v := range s {
		dst = PutUvarint(dst, Zigzag(int64(v)))
	}
	return dst
}

func GetIntSlice(src []byte) ([]int, []byte, error) {
	n, rest, err := GetUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	count := int(n - 1)
	// Each value costs at least one byte.
	if count < 0 || count > len(rest) {
		return nil, nil, fmt.Errorf("codec: truncated varint int slice (%d entries)", count)
	}
	out := make([]int, count)
	for i := range out {
		var u uint64
		if u, rest, err = GetUvarint(rest); err != nil {
			return nil, nil, err
		}
		out[i] = int(Unzigzag(u))
	}
	return out, rest, nil
}
