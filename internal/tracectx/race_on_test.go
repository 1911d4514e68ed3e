//go:build race

package tracectx

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
