//go:build !race

package delta_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
