//go:build !race

package server

// raceEnabled reports a -race build, whose shadow memory distorts heap
// measurements.
const raceEnabled = false
