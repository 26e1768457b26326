package lint

import "testing"

// BenchmarkAbpvet times the full analyzer suite over the repository's own
// packages — the flow engine's real workload — so regressions in CFG,
// call-graph, or goroutine-inference cost show up in the perf trajectory
// alongside the scheduler benchmarks. Loading and type-checking happen
// once outside the timer: the subject is analysis, not `go list`.
func BenchmarkAbpvet(b *testing.B) {
	pkgs, err := NewLoader().Load("../..", "./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			if pkg.Standard {
				continue
			}
			if _, err := RunSuite(All(), pkg, CollectIgnores(pkg)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAbpvetColdLoader is the per-invocation cost without the shared
// cache: every iteration parses and type-checks the whole dependency graph
// from scratch, the way each Tool run did before LoaderFor.
func BenchmarkAbpvetColdLoader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewLoader().Load("../..", "./..."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbpvetSharedLoader is the same full-tree load through the
// process-wide LoaderFor cache — the repeated in-process invocation
// scenario: after the first iteration only the `go list` subprocess
// remains; parse and type-check are cache hits.
func BenchmarkAbpvetSharedLoader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LoaderFor("../..").Load("../..", "./..."); err != nil {
			b.Fatal(err)
		}
	}
}
