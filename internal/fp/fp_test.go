package fp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	src := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	buf := make([]byte, len(src)*Bytes)
	if err := PutFloat64s(buf, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(src))
	if err := GetFloat64s(dst, buf); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Errorf("value %d = %g, want %g", i, dst[i], src[i])
		}
	}
}

func TestSizeValidation(t *testing.T) {
	if err := PutFloat64s(make([]byte, 7), []float64{1}); err == nil {
		t.Error("accepted short buffer")
	}
	if err := GetFloat64s(make([]float64, 2), make([]byte, 8)); err == nil {
		t.Error("accepted mismatched decode")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		buf := make([]byte, len(vals)*Bytes)
		if PutFloat64s(buf, vals) != nil {
			return false
		}
		back := make([]float64, len(vals))
		if GetFloat64s(back, buf) != nil {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] && !(math.IsNaN(back[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
