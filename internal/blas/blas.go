// Package blas provides the dense linear-algebra kernels the matrix
// multiplication application builds on, standing in for the MKL BLAS
// the paper links against. Matrices are dense, row-major float64.
package blas

import "fmt"

// blockSize is the cache-blocking tile edge for Dgemm.
const blockSize = 64

// Dgemm computes C += A * B for row-major matrices: A is m x k, B is
// k x n, C is m x n. It uses i-k-j loop order with cache blocking.
func Dgemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("blas: negative dimension %dx%dx%d", m, n, k)
	}
	if lda < k || ldb < n || ldc < n {
		return fmt.Errorf("blas: leading dimensions too small (%d/%d/%d for %dx%dx%d)", lda, ldb, ldc, m, n, k)
	}
	if len(a) < (m-1)*lda+k && m > 0 {
		return fmt.Errorf("blas: a too short")
	}
	if len(b) < (k-1)*ldb+n && k > 0 {
		return fmt.Errorf("blas: b too short")
	}
	if len(c) < (m-1)*ldc+n && m > 0 {
		return fmt.Errorf("blas: c too short")
	}
	for i0 := 0; i0 < m; i0 += blockSize {
		iMax := min(i0+blockSize, m)
		for k0 := 0; k0 < k; k0 += blockSize {
			kMax := min(k0+blockSize, k)
			for j0 := 0; j0 < n; j0 += blockSize {
				jMax := min(j0+blockSize, n)
				for i := i0; i < iMax; i++ {
					arow := a[i*lda : i*lda+k]
					crow := c[i*ldc : i*ldc+n]
					for kk := k0; kk < kMax; kk++ {
						av := arow[kk]
						if av == 0 {
							continue
						}
						brow := b[kk*ldb : kk*ldb+n]
						for j := j0; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
	return nil
}
