// Command abplint is the canonical front end for the repository's
// concurrency-contract analyzer suite (package internal/lint): all seven
// analyzers — the syntactic contract checks, the flow-aware owner/CAS
// analyses, the whole-package race detector, and the memory-ordering and
// liveness analyzers — in one run, in the manner of a
// golang.org/x/tools/go/analysis multichecker but with zero dependencies
// outside the standard library. -only runs a subset: -only abprace is the
// race detector alone.
//
// Usage:
//
//	go run ./cmd/abplint [-only abpwait,abprace] [-list]
//	                     [-sarif file] [-unused-ignores]
//	                     [-C dir] [packages]
//
// Packages default to ./... . Test files and testdata directories are not
// analyzed (the analyzers guard production invariants; tests intentionally
// abuse them).
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on
// operational failure (bad flags, load or type-check errors, unwritable
// output). Findings can be suppressed case by case with a justified
// directive — //abp:ignore for the suite, or the analyzer-specific
// //abp:race-ignore, //abp:order-ignore and //abp:wait-ignore forms (see
// package internal/lint); -unused-ignores reports directives that no
// longer suppress anything or that name no analyzer.
package main

import (
	"io"
	"os"

	"worksteal/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored for in-process testing: it returns
// the exit status instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	tool := &lint.Tool{Name: "abplint", Analyzers: lint.All()}
	return tool.Main(args, stdout, stderr)
}
