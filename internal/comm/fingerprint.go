package comm

import "math"

// FNV-1a 64-bit parameters, applied word-wise below.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint hashes the order and every cell of the matrix (bit
// pattern, not numeric value, so NaNs and signed zeros distinguish),
// whatever stores it: a sparse affinity hashes as its dense form.
// It is the identity the placement mapping cache keys on and the wire
// protocol's "fingerprint-only" request handle: a client that has
// already shipped a matrix body refers to it by this hash, and the
// serving daemon resolves it from its recently-seen table. Both sides
// must therefore hash the exact same value stream — order, then
// entries row-major as raw float64 bits.
//
// The mix is FNV-1a applied per 64-bit word rather than per byte: one
// xor-multiply per entry instead of eight keeps the hash out of the
// warm placement profile (it runs on every request on both sides of
// the wire). Position still matters — each entry is folded under a
// different number of multiplies — so permuted matrices hash apart.
// The hash is an in-memory identity, never persisted, so its value may
// change between builds. A client and server that happen to disagree
// (mixed builds) stay correct — every fingerprint reference misses and
// the body is resent — they just lose the compact-request optimisation.
//
// Contract: the fingerprint is computable from the matrix's (zero-gap,
// run) stream alone, without visiting a zero cell — FingerprintFold
// does exactly that, and the wire codec hashes sparse bodies with it
// on both sides. A replacement digest must keep that property (one that
// hashes only the nonzeros has it by construction).
func Fingerprint(a Affinity) uint64 {
	if NilAffinity(a) {
		return 0
	}
	m, ok := a.(*Matrix)
	if !ok {
		return foldNonzeros(a)
	}
	h := uint64(fnvOffset64)
	n := m.Order()
	h = (h ^ uint64(n)) * fnvPrime64
	for i := 0; i < n; i++ {
		for _, v := range m.RowView(i) {
			h = (h ^ math.Float64bits(v)) * fnvPrime64
		}
	}
	return h
}

// foldNonzeros is Fingerprint from the row-sorted nonzeros of a.
func foldNonzeros(a Affinity) uint64 {
	var f FingerprintFold
	n := a.Order()
	f.Start(n)
	var i, end int
	// One closure for every row: a literal inside the loop would be
	// allocated per row, since ForEachRow is an interface call.
	row := func(j int, v float64) {
		at := i*n + j
		f.Zeros(at - end)
		f.Run(math.Float64bits(v), 1)
		end = at + 1
	}
	for i = 0; i < n; i++ {
		a.ForEachRow(i, row)
	}
	return f.Sum()
}

// FingerprintFold computes Fingerprint from the run-length view of a
// matrix — zero gaps and runs of equal words over the row-major cell
// stream — in O(runs) rather than O(n²). FNV-1a over a +0 word is a
// bare multiply, so a gap of g zero cells folds as one multiply by p^g,
// read from byte-indexed power tables; a run of L equal words folds L
// times. Call Start, then Zeros and Run in cell order; Sum folds the
// cells not yet covered as trailing zeros. The zero value is unusable
// before Start.
type FingerprintFold struct {
	h    uint64
	left int // cells not yet folded
}

// fnvPow[k][b] is p^(b·256^k): any gap below 2²⁴ costs three lookups.
var fnvPow = fnvPowers()

// fnvPow24 is p^(2²⁴), the step of a gap beyond the tables.
var fnvPow24 = fnvPow[2][255] * fnvPow[2][1]

func fnvPowers() (t [3][256]uint64) {
	step := uint64(fnvPrime64) // p^(256^k)
	for k := range t {
		t[k][0] = 1
		for b := 1; b < 256; b++ {
			t[k][b] = t[k][b-1] * step
		}
		step *= t[k][255]
	}
	return t
}

// Start begins the fold of an order-n matrix.
func (f *FingerprintFold) Start(n int) {
	f.h = (fnvOffset64 ^ uint64(n)) * fnvPrime64
	f.left = n * n
}

// Zeros folds g zero cells.
func (f *FingerprintFold) Zeros(g int) {
	f.left -= g
	if g < 256 { // the common gap: one lookup
		f.h *= fnvPow[0][g]
		return
	}
	for ; g >= 1<<24; g -= 1 << 24 {
		f.h *= fnvPow24
	}
	f.h *= fnvPow[0][g&0xff] * fnvPow[1][g>>8&0xff] * fnvPow[2][g>>16]
}

// Run folds l cells holding the word bits (float64 bits).
func (f *FingerprintFold) Run(bits uint64, l int) {
	if bits == 0 {
		f.Zeros(l)
		return
	}
	f.left -= l
	for ; l > 0; l-- {
		f.h = (f.h ^ bits) * fnvPrime64
	}
}

// Sum returns the fingerprint, folding the cells not yet covered as
// zeros.
func (f *FingerprintFold) Sum() uint64 {
	if f.left > 0 {
		f.Zeros(f.left)
	}
	return f.h
}
