//go:build !race

package clustering_test

const raceEnabled = false
