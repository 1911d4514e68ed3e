//go:build !race

package tracectx

const raceEnabled = false
