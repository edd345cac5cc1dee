//go:build race

package placement

// raceBuild is true under the race detector, whose instrumentation
// allocates: the zero-allocation tripwires do not hold there.
const raceBuild = true
