//go:build race

package treematch

// raceBuild is true under the race detector, which makes sync.Pool drop
// items at random: allocation budgets that count on pooled buffers do
// not hold there.
const raceBuild = true
