package cache

import (
	"strings"
	"testing"
)

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"LRU", "SRRIP", "BRRIP", "DRRIP", "TA-DRRIP", "DIP", "PDP", "Random"} {
		f, err := PolicyByName(name, 4)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p := f(16, 4, 1); p == nil {
			t.Errorf("%s: nil policy", name)
		}
	}
	// The error must enumerate the valid policies.
	_, err := PolicyByName("bogus", 1)
	if err == nil {
		t.Fatal("unknown policy must fail")
	}
	for _, want := range []string{"bogus", "LRU", "TA-DRRIP", "PDP", "Random"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("PolicyByName error %q does not mention %q", err, want)
		}
	}
}

func TestBuildSchemes(t *testing.T) {
	for _, scheme := range []string{"none", "way", "set", "vantage", "ideal"} {
		c, err := Build(scheme, 4096, 16, 2, "LRU", 2, 1)
		if err != nil {
			t.Errorf("%s: %v", scheme, err)
			continue
		}
		if c.NumPartitions() != 2 {
			t.Errorf("%s: partitions = %d", scheme, c.NumPartitions())
		}
		if c.Capacity() <= 0 {
			t.Errorf("%s: capacity = %d", scheme, c.Capacity())
		}
	}
	// The error must enumerate the valid schemes.
	_, err := Build("bogus", 4096, 16, 1, "LRU", 1, 1)
	if err == nil {
		t.Fatal("unknown scheme must fail")
	}
	for _, want := range []string{"bogus", "none", "way", "set", "vantage", "futility", "ideal"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Build error %q does not mention %q", err, want)
		}
	}
}
