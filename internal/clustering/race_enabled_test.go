//go:build race

package clustering_test

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation adds allocations the guards must not count.
const raceEnabled = true
