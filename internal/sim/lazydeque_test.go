package sim

import (
	"fmt"
	"testing"

	"worksteal/internal/workload"
)

// Lazy exposure completes every workload under every adversary with its
// yield, exactly once per node, for each region bound. Alone, a process
// pays no more fences than on the ABP deque — fewer on a dag whose pushes
// go private, where the public part holds an older node (a spine's never
// does: it pops each push before the next). With thieves it may pay more:
// every request and every clear is a store, and a steal-bound run makes
// many (EXPERIMENTS.md E32).
func TestLazyDequeCompletes(t *testing.T) {
	kernels := []struct {
		name string
		k    func(p int) Kernel
		y    YieldKind
	}{
		{"dedicated", func(p int) Kernel { return DedicatedKernel{NumProcs: p} }, YieldNone},
		{"benign", func(p int) Kernel { return ConstBenign(p, max(1, p/4)) }, YieldNone},
		{"oblivious", func(p int) Kernel { return NewSeededOblivious(p, max(1, p/4), 61) }, YieldToRandom},
		{"adaptive", func(p int) Kernel { return StarveWorkersKernel{NumProcs: p} }, YieldToAll},
		{"preemptOwner", func(p int) Kernel { return PreemptLockHolderKernel{NumProcs: p} }, YieldNone},
	}
	for _, spec := range workload.SmallCatalog() {
		for _, p := range []int{1, 2, 8} {
			for _, kc := range kernels {
				for _, k := range []int{1, 4, 8} {
					t.Run(fmt.Sprintf("%s/P=%d/%s/k=%d", spec.Name, p, kc.name, k), func(t *testing.T) {
						g := spec.Build()
						res := mustRun(t, Config{Graph: g, P: p, Kernel: kc.k(p), Yield: kc.y,
							Deque: DequeLazy, LazyK: k, Seed: 3})
						if res.Steals > res.StealAttempts {
							t.Errorf("steals %d > attempts %d", res.Steals, res.StealAttempts)
						}
						if kc.name != "dedicated" || p != 1 {
							return
						}
						abp := mustRun(t, Config{Graph: g, P: p, Kernel: kc.k(p), Seed: 3})
						if res.Fences > abp.Fences || res.PrivateOps > 0 && res.Fences >= abp.Fences {
							t.Errorf("lazy: %d fences, %d private operations; ABP: %d fences", res.Fences, res.PrivateOps, abp.Fences)
						}
					})
				}
			}
		}
	}
}

// A fib dag alone keeps most of its pushes private.
func TestLazyDequeFibIsMostlyPrivate(t *testing.T) {
	g := workload.FibDag(12)
	abp := mustRun(t, Config{Graph: g, P: 1, Kernel: DedicatedKernel{NumProcs: 1}, Seed: 1})
	res := mustRun(t, Config{Graph: g, P: 1, Kernel: DedicatedKernel{NumProcs: 1}, Deque: DequeLazy, Seed: 1})
	if 2*res.Fences > abp.Fences || res.PrivateOps == 0 {
		t.Errorf("lazy: %d fences, %d private operations; ABP: %d fences", res.Fences, res.PrivateOps, abp.Fences)
	}
	t.Logf("fib(12) alone: %d fences lazy, %d ABP; %d private operations", res.Fences, abp.Fences, res.PrivateOps)
}
