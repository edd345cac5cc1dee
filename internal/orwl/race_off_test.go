//go:build !race

package orwl

const raceBuild = false
