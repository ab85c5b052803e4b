package main

import (
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Fatalf("splitList(\"\") = %v", splitList(""))
	}
}

// TestCheckRunKind: an explicitly set flag the chosen run kind does not
// read is refused by name — `-weights 4,1 -epoch 4096` without -adaptive
// used to print a RunMix table as if both had applied.
func TestCheckRunKind(t *testing.T) {
	cases := []struct {
		name     string
		adaptive bool
		set      []string
		wantErr  []string // substrings of the error; nil = accepted
	}{
		{"mix, shared flags only", false, []string{"apps", "mb", "seed", "trace", "parallelism", "mode", "work"}, nil},
		{"adaptive, its own flags", true, []string{"adaptive", "apps", "mb", "seed", "trace", "epoch", "accesses", "shards", "tail", "weights"}, nil},
		{"nothing set", false, nil, nil},
		{"mix with -epoch", false, []string{"apps", "epoch"}, []string{"-epoch", "-adaptive runs"}},
		{"mix with -accesses", false, []string{"accesses"}, []string{"-accesses"}},
		{"mix with -shards", false, []string{"shards"}, []string{"-shards"}},
		{"mix with -tail", false, []string{"tail"}, []string{"-tail"}},
		{"mix with -weights", false, []string{"mode", "weights"}, []string{"-weights", "cycle-driven mix run"}},
		{"adaptive with -mode", true, []string{"adaptive", "mode"}, []string{"-mode", "an -adaptive run"}},
		{"adaptive with -work", true, []string{"adaptive", "work"}, []string{"-work", "cycle-driven mix runs"}},
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkRunKind(tc.adaptive, set)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}
