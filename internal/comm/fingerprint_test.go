package comm

import (
	"math"
	"math/rand"
	"testing"
)

// foldRuns folds m's cells as (zero-gap, run) pairs, a run being
// maximal within a row, the way the wire codec does.
func foldRuns(m *Matrix) uint64 {
	var f FingerprintFold
	n := m.Order()
	f.Start(n)
	end := 0
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := 0; j < n; {
			b := math.Float64bits(row[j])
			if b == 0 {
				j++
				continue
			}
			l := 1
			for j+l < n && math.Float64bits(row[j+l]) == b {
				l++
			}
			f.Zeros(i*n + j - end)
			f.Run(b, l)
			end = i*n + j + l
			j += l
		}
	}
	return f.Sum()
}

// TestFingerprintFoldMatchesFingerprint: folding the runs gives
// Fingerprint over orders 0 up, densities from empty to full, -0, NaN,
// equal-value runs and trailing zeros.
func TestFingerprintFoldMatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := []float64{1, 65536, math.Copysign(0, -1), math.NaN(), 0.5}
	for _, n := range []int{0, 1, 2, 63, 160, 300} {
		for _, density := range []float64{0, 0.01, 0.1, 0.5, 1} {
			m := NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() < density {
						m.Set(i, j, values[rng.Intn(len(values))])
					}
				}
			}
			if got, want := foldRuns(m), Fingerprint(m); got != want {
				t.Fatalf("n=%d density %g: fold %016x, Fingerprint %016x", n, density, got, want)
			}
		}
	}
}

// TestFingerprintFoldGapsAndZeroRuns: a gap of g folds as g single zero
// words, on both sides of every power-table boundary and beyond the
// tables; a run of +0 is a gap.
func TestFingerprintFoldGapsAndZeroRuns(t *testing.T) {
	for _, g := range []int{0, 1, 255, 256, 257, 65535, 65536, 1<<24 - 1, 1 << 24, 1<<24 + 3} {
		var gap, run FingerprintFold
		gap.Start(3)
		run.Start(3)
		gap.Zeros(g)
		run.Run(0, g)
		h := uint64(fnvOffset64)
		h = (h ^ 3) * fnvPrime64
		for k := 0; k < g; k++ {
			h = (h ^ 0) * fnvPrime64
		}
		if gap.h != h || run.h != h {
			t.Fatalf("gap %d: Zeros %016x, Run(+0) %016x, word by word %016x", g, gap.h, run.h, h)
		}
	}
}
