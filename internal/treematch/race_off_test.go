//go:build !race

package treematch

const raceBuild = false
