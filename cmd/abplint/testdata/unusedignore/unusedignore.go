// Package unusedignore is a CLI test fixture for -unused-ignores: both
// directives below suppress nothing, so the full suite must flag both as
// stale — while a run restricted with -only abprace judges only the
// //abp:race-ignore, because the equally stale //abp:ignore mustcheck is
// addressed to an analyzer that did not run and might well suppress one of
// its findings.
package unusedignore

//abp:race-ignore nothing here ever raced
var x = 1

//abp:ignore mustcheck nothing here ever produced a finding
var y = 2

var _ = x + y
