//go:build !race

package placement

const raceBuild = false
