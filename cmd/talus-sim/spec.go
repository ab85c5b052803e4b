// Spec-file loading and command-line override semantics, separated from
// main so the precedence rules are unit-testable.

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// specFile mirrors the JSON schema.
type specFile struct {
	Apps        []string `json:"apps"`
	CapacityMB  float64  `json:"capacity_mb"`
	Mode        string   `json:"mode"`
	WorkInstr   int64    `json:"work_instr"`
	EpochCycles int64    `json:"epoch_cycles"`
	Seed        uint64   `json:"seed"`

	// TraceFiles lists recorded traces (internal/trace) whose partitions
	// join the run as replayed apps; with "adaptive" and no apps, a
	// single trace drives an exact replay of the recorded stream.
	TraceFiles []string `json:"trace_files"`

	// Adaptive-runtime fields (used with "adaptive": true): the online
	// control loop replaces the cycle-driven CPU simulation.
	Adaptive      bool    `json:"adaptive"`
	EpochAccesses int64   `json:"epoch_accesses"`
	Allocator     string  `json:"allocator"`
	Accesses      int64   `json:"accesses_per_app"`
	Shards        int     `json:"shards"`
	TailFrac      float64 `json:"tail_frac"`

	// Weights gives each app's partition an objective weight, in app
	// order (the allocator minimizes Σ wᵢ·missesᵢ); SelfTune enables the
	// churn-driven epoch controller bounded by MinEpoch/MaxEpoch.
	Weights  []float64 `json:"weights"`
	SelfTune bool      `json:"self_tune"`
	MinEpoch int64     `json:"min_epoch"`
	MaxEpoch int64     `json:"max_epoch"`
}

// loadSpec parses a JSON spec, rejecting unknown (typo'd) keys.
func loadSpec(path string) (specFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return specFile{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec specFile
	if err := dec.Decode(&spec); err != nil {
		return specFile{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	var trailing any
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return specFile{}, fmt.Errorf("parsing %s: trailing data after the spec object", path)
	}
	return spec, nil
}

// flagValues carries the command-line flag values that can override
// spec fields.
type flagValues struct {
	apps     string
	mode     string
	mb       float64
	work     int64
	seed     uint64
	adaptive bool
	epoch    int64
	alloc    string
	accesses int64
	shards   int
	tail     float64
	traces   string
	weights  []float64
	selfTune bool
	minEpoch int64
	maxEpoch int64
}

// applyFlags overrides spec fields with flags the user explicitly set
// on the command line (set holds flag names visited by flag.Visit).
// Explicit flags always win over the spec file; untouched flags leave
// the spec's values (or its zero-value defaults) alone.
func (s *specFile) applyFlags(set map[string]bool, v flagValues) {
	if set["apps"] {
		s.Apps = splitList(v.apps)
	}
	if set["mode"] {
		s.Mode = v.mode
	}
	if set["mb"] {
		s.CapacityMB = v.mb
	}
	if set["work"] {
		s.WorkInstr = v.work
	}
	if set["seed"] {
		s.Seed = v.seed
	}
	if set["adaptive"] {
		s.Adaptive = v.adaptive
	}
	if set["epoch"] {
		s.EpochAccesses = v.epoch
	}
	if set["alloc"] {
		s.Allocator = v.alloc
	}
	if set["accesses"] {
		s.Accesses = v.accesses
	}
	if set["shards"] {
		s.Shards = v.shards
	}
	if set["tail"] {
		s.TailFrac = v.tail
	}
	if set["trace"] {
		s.TraceFiles = splitList(v.traces)
	}
	if set["weights"] {
		s.Weights = v.weights
	}
	if set["self-tune"] {
		s.SelfTune = v.selfTune
	}
	if set["min-epoch"] {
		s.MinEpoch = v.minEpoch
	}
	if set["max-epoch"] {
		s.MaxEpoch = v.maxEpoch
	}
}

// parseWeights parses the -weights flag: comma-separated per-app
// weights in app order ("4,1,1,1"). Empty means uniform.
func parseWeights(s string) ([]float64, error) {
	parts := splitList(s)
	if len(parts) == 0 {
		return nil, nil
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseFloat(p, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-weights entry %q: want a non-negative number", p)
		}
		out[i] = w
	}
	return out, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
