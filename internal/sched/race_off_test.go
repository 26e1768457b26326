//go:build !race

package sched

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
