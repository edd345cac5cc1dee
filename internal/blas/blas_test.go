package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation.
func naiveGemm(m, n, k int, a, b, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a[i*k+kk] * b[kk*n+j]
			}
			c[i*n+j] += s
		}
	}
}

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestDgemmMatchesNaive(t *testing.T) {
	cases := []struct{ m, n, k int }{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {64, 64, 64}, {65, 63, 70}, {128, 1, 17},
	}
	for _, c := range cases {
		a := randSlice(c.m*c.k, 1)
		b := randSlice(c.k*c.n, 2)
		got := randSlice(c.m*c.n, 3)
		want := append([]float64(nil), got...)
		if err := Dgemm(c.m, c.n, c.k, a, c.k, b, c.n, got, c.n); err != nil {
			t.Fatalf("%dx%dx%d: %v", c.m, c.n, c.k, err)
		}
		naiveGemm(c.m, c.n, c.k, a, b, want)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%dx%dx%d: element %d = %g, want %g", c.m, c.n, c.k, i, got[i], want[i])
			}
		}
	}
}

func TestDgemmZeroDims(t *testing.T) {
	if err := Dgemm(0, 0, 0, nil, 0, nil, 0, nil, 0); err != nil {
		t.Errorf("0x0x0 should be a no-op: %v", err)
	}
}

func TestDgemmValidation(t *testing.T) {
	if err := Dgemm(-1, 1, 1, nil, 1, nil, 1, nil, 1); err == nil {
		t.Error("accepted negative dim")
	}
	a := make([]float64, 4)
	if err := Dgemm(2, 2, 2, a, 1, a, 2, a, 2); err == nil {
		t.Error("accepted lda < k")
	}
	if err := Dgemm(2, 2, 2, a[:2], 2, a, 2, a, 2); err == nil {
		t.Error("accepted short a")
	}
	if err := Dgemm(2, 2, 2, a, 2, a[:2], 2, a, 2); err == nil {
		t.Error("accepted short b")
	}
	if err := Dgemm(2, 2, 2, a, 2, a, 2, a[:2], 2); err == nil {
		t.Error("accepted short c")
	}
}

func TestDgemmStridedSubmatrix(t *testing.T) {
	// Multiply the top-left 2x2 blocks of 4x4 matrices.
	a := randSlice(16, 4)
	b := randSlice(16, 5)
	c := make([]float64, 16)
	if err := Dgemm(2, 2, 2, a, 4, b, 4, c, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := a[i*4]*b[j] + a[i*4+1]*b[4+j]
			if math.Abs(c[i*4+j]-want) > 1e-12 {
				t.Errorf("c[%d][%d] = %g, want %g", i, j, c[i*4+j], want)
			}
		}
	}
	// Cells outside the block stay zero.
	if c[2] != 0 || c[8] != 0 {
		t.Error("gemm wrote outside the block")
	}
}

// Property: Dgemm is linear in A — gemm(alpha*A) == alpha*gemm(A).
func TestDgemmLinearityProperty(t *testing.T) {
	f := func(seed int64, alphaRaw int8) bool {
		alpha := float64(alphaRaw%7) + 0.5
		const n = 8
		a := randSlice(n*n, seed)
		b := randSlice(n*n, seed+1)
		c1 := make([]float64, n*n)
		if Dgemm(n, n, n, a, n, b, n, c1, n) != nil {
			return false
		}
		a2 := make([]float64, len(a))
		for i, v := range a {
			a2[i] = alpha * v
		}
		c2 := make([]float64, n*n)
		if Dgemm(n, n, n, a2, n, b, n, c2, n) != nil {
			return false
		}
		for i := range c1 {
			if math.Abs(c2[i]-alpha*c1[i]) > 1e-9*(1+math.Abs(c1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
