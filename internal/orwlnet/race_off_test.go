//go:build !race

package orwlnet

const raceBuild = false
