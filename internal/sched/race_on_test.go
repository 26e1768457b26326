//go:build race

package sched

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip themselves under -race (its instrumentation
// allocates).
const raceEnabled = true
