package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: a flag value talus-exp cannot use exits 2 and names
// the flag before any experiment runs. parent is the same request at
// the parent commit (talus-oracle printed the oracle table) and what it
// did.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args   string
		want   string // substring of stderr
		parent string
	}{
		{"-exp fig1 -parallelism -2", "-parallelism -2", "talus-exp -exp fig1 -parallelism -2: accepted"},
		{"-exp fig1 -scale huge", `-scale "huge"`, "talus-exp -exp fig1 -huge: unknown flag"},
		{"-exp fig1 -quick", "not defined: -quick", "talus-exp -exp fig1 -quick: the quick scale"},
		{"-exp oracle -accesses 0", "not defined: -accesses", "talus-oracle -accesses 0: panic"},
		{"-exp oracle -accesses -5", "not defined: -accesses", "talus-oracle -accesses -5: panic"},
		{"-exp oracle -mb 0", "not defined: -mb", "talus-oracle -mb 0: panic"},
		{"-exp fig1 extra", `unexpected argument "extra"`, "talus-exp -exp fig1 extra: extra ignored"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("talus-exp %s: exit %d, want 2 (parent: %s)\nstderr: %s", tc.args, code, tc.parent, &stderr)
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("talus-exp %s: stderr does not name %q:\n%s", tc.args, tc.want, &stderr)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "goroutine") {
			t.Errorf("talus-exp %s: ran or panicked:\nstdout: %s\nstderr: %s", tc.args, &stdout, &stderr)
		}
	}
}

// TestStdoutIsTheTable: the run time goes to stderr, so two runs of one
// experiment print identical stdout and a plain diff compares them.
func TestStdoutIsTheTable(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		var stderr bytes.Buffer
		if code := run([]string{"-exp", "fig2", "-scale", "tiny"}, &out[i], &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, &stderr)
		}
		if !strings.Contains(stderr.String(), "[fig2 completed in") {
			t.Fatalf("no timing line on stderr: %q", &stderr)
		}
	}
	if out[0].String() != out[1].String() || strings.Contains(out[0].String(), "completed in") {
		t.Fatalf("stdout differs between runs or carries the timing line:\n%s\n---\n%s", &out[0], &out[1])
	}
}
