// Package unusedignore is a CLI test fixture for -unused-ignores: the
// directives below suppress nothing, so the full suite must flag all three
// as stale — while a run restricted with -only abprace judges the
// //abp:race-ignore and the //abp:ignore atomicmix, which names an analyzer
// merged into abporder, but not the equally stale //abp:ignore mustcheck:
// that one is addressed to an analyzer that did not run and might well
// suppress one of its findings.
package unusedignore

//abp:race-ignore nothing here ever raced
var x = 1

//abp:ignore mustcheck nothing here ever produced a finding
var y = 2

//abp:ignore atomicmix no analyzer goes by this name any more
var z = 3

var _ = x + y + z
