//go:build !race

package comm

const raceBuild = false
