//go:build !abpsync

package sched

// syncOps is zero outside the counting build, which alone counts.
func syncOps() [3]int64 { return [3]int64{} }

const countingBuild = false
