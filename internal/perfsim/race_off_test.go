//go:build !race

package perfsim

const raceBuild = false
