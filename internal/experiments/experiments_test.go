package experiments

import (
	"io"
	"strings"
	"testing"
)

// Every experiment must run to completion and produce its table or figure.
func TestExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	cases := map[string]struct {
		run  func(w io.Writer)
		want []string
	}{
		"E1":  {E1Figure1, []string{"Figure 1", "x2 -> x5 (spawn)", "Tinf = 9"}},
		"E2":  {E2Greedy, []string{"length 10", "Theorem 1", "holds"}},
		"E3":  {E3LowerBound, []string{"E3", "chain", "len/bound"}},
		"E4":  {E4GreedyBound, []string{"E4", "true"}},
		"E8":  {E8Ablations, []string{"locked deque", "false", "yieldToAll", "true"}},
		"E9":  {E9Potential, []string{"Lemma 7", "Lemma 8", "true"}},
		"E10": {E10Structural, []string{"violations", "0"}},
		"E11": {E11RelatedWork, []string{"coscheduled", "space partition"}},
		"E12": {E12SpeedupVsPA, []string{"efficiency", "speedup"}},
		"E13": {E13Schedulers, []string{"pdf len", "serial spc"}},
		"E14": {E14Space, []string{"S1*P", "max space"}},
		"E32": {E32LazyExposure, []string{"lazy k=4", "adaptive", "summary"}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			c.run(&sb)
			for _, want := range c.want {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("%s output missing %q:\n%s", name, want, sb.String())
				}
			}
		})
	}
}

func TestE5E6E7Pipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	var sb strings.Builder
	pts := E5Dedicated(&sb)
	if len(pts) == 0 {
		t.Fatal("E5 produced no run points")
	}
	pts = append(pts, E6Adversaries(&sb)...)
	E7Fit(&sb, pts)
	out := sb.String()
	for _, want := range []string{"E5", "speedup", "E6", "adaptive", "E7", "C1"} {
		if !strings.Contains(out, want) {
			t.Errorf("pipeline output missing %q", want)
		}
	}
}

func TestGraphsHaveDistinctShapes(t *testing.T) {
	specs := Graphs()
	if len(specs) < 6 {
		t.Fatalf("only %d workloads", len(specs))
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		g := spec.Build()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if seen[spec.Name] {
			t.Errorf("duplicate workload name %s", spec.Name)
		}
		seen[spec.Name] = true
	}
}
