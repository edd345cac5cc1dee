package perfsim

// SimulateRef exposes the dense reference to the external tests, which
// may import the application profiles (they import this package).
var SimulateRef = simulateRef
