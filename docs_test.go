package talus_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealMakeTargets fails when a living document tells the
// reader to run a make target the Makefile does not declare: every
// `make <target>` (in backticks, or on a "$ make" console line; a|b
// alternations count each name) must be in the Makefile's .PHONY list.
// CHANGES.md, ROADMAP.md and ISSUE.md are history and exempt; bench/ is
// the benchmark's own.
func TestDocsNameRealMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(mk)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	targets := make(map[string]bool)
	for _, name := range strings.Fields(string(phony[1])) {
		targets[name] = true
	}

	mention := regexp.MustCompile("(?:`|\\$ )make ([A-Za-z0-9_.|-]+)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllSubmatch(text, -1) {
			for _, name := range strings.Split(string(m[1]), "|") {
				if !targets[name] {
					t.Errorf("%s names `make %s`, which is not in the Makefile's .PHONY list", doc, name)
				}
			}
		}
	}
}
