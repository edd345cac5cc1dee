// Package fp converts between float64 slices and the byte buffers held
// by ORWL locations. Locations store raw bytes (they may hold any
// resource); the numeric applications use these helpers at the
// location boundary.
package fp

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Bytes is the encoded size of one float64.
const Bytes = 8

// PutFloat64s encodes src into dst, which must be exactly
// len(src)*Bytes long.
func PutFloat64s(dst []byte, src []float64) error {
	if len(dst) != len(src)*Bytes {
		return fmt.Errorf("fp: buffer %d bytes for %d floats", len(dst), len(src))
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*Bytes:], math.Float64bits(v))
	}
	return nil
}

// GetFloat64s decodes src into dst, which must hold exactly
// len(src)/Bytes values.
func GetFloat64s(dst []float64, src []byte) error {
	if len(src) != len(dst)*Bytes {
		return fmt.Errorf("fp: buffer %d bytes for %d floats", len(src), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*Bytes:]))
	}
	return nil
}
