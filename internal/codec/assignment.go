package codec

import (
	"bytes"
	"fmt"

	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

// Assignment flag bits.
const (
	assignUnbound        = 1 << 0
	assignOversubscribed = 1 << 1
)

// PutAssignment encodes a possibly-nil assignment: presence byte,
// strategy, flags, control mode, then the three PU slices.
func PutAssignment(dst []byte, a *placement.Assignment) []byte {
	if a == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = PutString(dst, a.Strategy)
	var flags byte
	if a.Unbound {
		flags |= assignUnbound
	}
	if a.Oversubscribed {
		flags |= assignOversubscribed
	}
	dst = append(dst, flags, byte(a.Mode))
	dst = PutIntSlice(dst, a.ComputePU)
	dst = PutIntSlice(dst, a.ControlPU)
	return PutIntSlice(dst, a.CoreOf)
}

// GetAssignment decodes a possibly-nil assignment. An encoding that
// opens with memo's own carries memo's values, so memo itself is
// returned: a repeated answer allocates nothing.
func GetAssignment(src []byte, memo *placement.Assignment) (*placement.Assignment, []byte, error) {
	if memo != nil {
		var buf [4 << 10]byte
		if enc := PutAssignment(buf[:0], memo); bytes.HasPrefix(src, enc) {
			return memo, src[len(enc):], nil
		}
	}
	present, rest, err := GetBool(src)
	if err != nil || !present {
		return nil, rest, err
	}
	a := &placement.Assignment{}
	if a.Strategy, rest, err = GetString(rest); err != nil {
		return nil, nil, err
	}
	if len(rest) < 2 {
		return nil, nil, fmt.Errorf("codec: truncated assignment")
	}
	flags := rest[0]
	a.Unbound = flags&assignUnbound != 0
	a.Oversubscribed = flags&assignOversubscribed != 0
	a.Mode = treematch.ControlMode(rest[1])
	rest = rest[2:]
	if a.ComputePU, rest, err = GetIntSlice(rest); err != nil {
		return nil, nil, err
	}
	if a.ControlPU, rest, err = GetIntSlice(rest); err != nil {
		return nil, nil, err
	}
	if a.CoreOf, rest, err = GetIntSlice(rest); err != nil {
		return nil, nil, err
	}
	return a, rest, nil
}
