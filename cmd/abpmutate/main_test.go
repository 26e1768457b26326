package main

import (
	"os"
	"strings"
	"testing"
)

// The campaign's inputs hold on the tree as it is: every edit of
// mutations.json names a file of the module and an old text that occurs in
// it exactly once, after the mutation's earlier edits, as apply requires,
// ci.yml still has the chaos steps the chaos guard runs, and the model
// guards are internal/sched's model families. An engine
// change that moves a mutated line fails here, not in the next campaign.
func TestMutationsApply(t *testing.T) {
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	all, err := readMutations()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range all {
		files := map[string]string{}
		for _, e := range m.Edits {
			src, ok := files[e.File]
			if !ok {
				b, err := os.ReadFile(e.File)
				if err != nil {
					t.Errorf("%s: %v", m.ID, err)
					continue
				}
				src = string(b)
			}
			next, err := applyEdit(src, e)
			if err != nil {
				t.Errorf("%s: %v", m.ID, err)
				continue
			}
			files[e.File] = next
		}
	}
	if _, err := chaosSteps(); err != nil {
		t.Error(err)
	}
	models, err := modelNames()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(models, " "); got != "Future Group Injector Phase Run Scope Sleep Status" {
		t.Errorf("model guards %q, want one per Test<Name>Model family", got)
	}
}
