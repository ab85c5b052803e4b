package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: every flag value a run cannot use exits 2 and names
// the flag before any simulation starts, and a flag the subcommand does
// not read is unknown.
func TestUsageErrors(t *testing.T) {
	wantUsageErrors(t, []usageCase{
		{"mix -apps mcf,lbm -work -5 -mb 2", "-work -5", "talus-sim -apps mcf,lbm -work -5 -mb 2: exit 0, IPC -0.0000, hit ratio 1.0000"},
		{"mix -apps mcf -mb 0", "-mb 0", "talus-sim -apps mcf -mb 0"},
		{"mix -apps mcf -parallelism -2", "-parallelism -2", "talus-sim -apps mcf -parallelism -2"},
		{"mix -mb 2", "-apps", "talus-sim -mb 2: usage, exit 2"},
		{"adaptive -apps mcf -epoch -5", "-epoch -5", "talus-sim -adaptive -apps mcf -epoch -5: default epoch"},
		{"adaptive -apps mcf -accesses -1", "-accesses -1", "talus-sim -adaptive -apps mcf -accesses -1: default 4M accesses"},
		{"adaptive -apps mcf -tail 2", "-tail 2", "talus-sim -adaptive -apps mcf -tail 2: default tail 0.5"},
		{"adaptive -apps mcf -shards 0", "-shards 0", "talus-sim -adaptive -apps mcf -shards 0: 1 shard"},
		{"adaptive -apps mcf -mb -1", "-mb -1", "talus-sim -adaptive -apps mcf -mb -1: exit 1"},
		{"adaptive -apps mcf,lbm -weights 4,x", "-weights entry", "talus-sim -adaptive -apps mcf,lbm -weights 4,x: exit 1"},
		{"record -apps mcf", "-o", "talus-trace record -apps mcf: exit 1"},
		{"stat", "-trace", "talus-trace stat: exit 1"},
		{"import -format elf -i a -o b", `-format "elf"`, "talus-trace import -format elf -i a -o b: exit 1"},
		{"sweep -app nope", "libquantum", `misscurve -app nope: exit 2, "try -list"`},
		// A flag the run kind does not read is not defined on its flag set.
		{"mix -apps mcf -weights 4", "not defined: -weights", "talus-sim -apps mcf -weights 4: exit 1 (checkRunKind)"},
		{"mix -apps mcf -epoch 4096", "not defined: -epoch", "talus-sim -apps mcf -epoch 4096: exit 1 (checkRunKind)"},
		{"adaptive -apps mcf -mode lru", "not defined: -mode", "talus-sim -adaptive -apps mcf -mode lru: exit 1 (checkRunKind)"},
		{"adaptive -apps mcf -work 5", "not defined: -work", "talus-sim -adaptive -apps mcf -work 5: exit 1 (checkRunKind)"},
		{"sweep -app mcf -trace t.bin", "not defined: -trace", "misscurve -app mcf -trace t.bin: wrote a trace"},
		{"sweep -list", "not defined: -list", "misscurve -list: listed the clones"},
		{"mix -apps mcf extra", `unexpected argument "extra"`, "talus-sim -apps mcf extra: extra ignored"},
		{"replay -trace t.trc", `unknown subcommand "replay"`, "talus-trace replay -trace t.trc: exit 2"},
		{"-adaptive -apps mcf", `unknown subcommand "-adaptive"`, "talus-sim -adaptive -apps mcf: the adaptive run"},
	})
}

// TestCheckFlags: a sweep that cannot be laid out, or a trace of no
// accesses, is refused by flag name. misscurve's checkFlags held these
// rules before they joined the range check of the sweep and record
// subcommands; -points 1 then swept a NaN size and -points -1 panicked
// in make.
func TestCheckFlags(t *testing.T) {
	wantUsageErrors(t, []usageCase{
		{"sweep -app mcf -monitor-points -3", "-monitor-points -3", "misscurve -app mcf -monitor-points -3: accepted"},
		{"sweep -app mcf -points 1", "-points 1", "misscurve -app mcf -points 1: exit 2"},
		{"sweep -app mcf -points 0", "-points 0", "misscurve -app mcf -points 0: exit 2"},
		{"sweep -app mcf -points -1", "-points -1", "misscurve -app mcf -points -1: exit 2"},
		{"sweep -app mcf -min 0", "-min 0", "misscurve -app mcf -min 0: exit 2"},
		{"sweep -app mcf -min -1", "-min -1", "misscurve -app mcf -min -1: exit 2"},
		{"sweep -app mcf -min NaN", "-min NaN", "misscurve -app mcf -min NaN: exit 2"},
		{"sweep -app mcf -min 1 -max -4", "-max -4", "misscurve -app mcf -min 1 -max -4: exit 2"},
		{"sweep -app mcf -min 8 -max 1", "-max 1", "misscurve -app mcf -min 8 -max 1: exit 2"},
		{"sweep -app mcf -min 2 -max 2", "-max 2", "misscurve -app mcf -min 2 -max 2: exit 2"},
		{"sweep -app mcf -min 1 -max NaN", "-max NaN", "misscurve -app mcf -min 1 -max NaN: exit 2"},
		{"record -apps mcf -o t.trc -n 0", "-n 0", `talus-trace record -apps mcf -o t.trc -n 0: 4 194 304 accesses, "1 apps × 0"`},
		{"record -apps mcf -o t.trc -n -3", "-n -3", `talus-trace record -apps mcf -o t.trc -n -3: 4 194 304 accesses, "1 apps × -3"`},
		// Sweeps that can be laid out pass the range check and stop at the
		// app lookup, before any simulation.
		{"sweep -app nope -min 0.25 -max 16 -points 10", `unknown app "nope"`, "misscurve -app nope -min 0.25 -max 16 -points 10: exit 2"},
		{"sweep -app nope -min 1 -max 8 -points 2", `unknown app "nope"`, "misscurve -app nope -min 1 -max 8 -points 2: exit 2"},
	})
}

// A usageCase is one command line that must exit 2 naming want. parent
// is how the same request was spelled when each run kind was a binary
// or a switch of its own, and what it did.
type usageCase struct {
	args   string
	want   string // substring of stderr
	parent string
}

func wantUsageErrors(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != 2 {
			t.Errorf("talus-sim %s: exit %d, want 2 (parent: %s)\nstderr: %s", tc.args, code, tc.parent, &stderr)
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("talus-sim %s: stderr does not name %q:\n%s", tc.args, tc.want, &stderr)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "goroutine") {
			t.Errorf("talus-sim %s: ran or panicked:\nstdout: %s\nstderr: %s", tc.args, &stdout, &stderr)
		}
	}
}

// TestImportAndStat runs the two trace subcommands that need no
// simulation end to end: a text trace imported, then inspected.
func TestImportAndStat(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "addrs.txt"), filepath.Join(dir, "t.trc")
	if err := os.WriteFile(in, []byte("0x40,0\n0x80,1\n0x40,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"import", "-format", "text", "-i", in, "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("import: exit %d: %s", code, &stderr)
	}
	if !strings.HasPrefix(stdout.String(), "imported 3 records (2 partitions)") {
		t.Fatalf("import printed %q", &stdout)
	}
	stdout.Reset()
	if code := run([]string{"stat", "-trace", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("stat: exit %d: %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "2 partitions, 3 records") {
		t.Fatalf("stat printed %q", &stdout)
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Fatalf("splitList(\"\") = %v", splitList(""))
	}
}
