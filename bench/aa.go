package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the A/A tool checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readManifest reads path, or with an empty path BENCHMARK.json from
// the working directory (the repo root) or its parent (from bench/).
func readManifest(path string) (*manifest, error) {
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = "../BENCHMARK.json"
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles are Python's statistics.quantiles(values, n=4): the
// exclusive method, which is what the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runChild runs this binary once and parses the last line it prints.
func runChild(exe, workload string, seed uint64, seconds, basePort int) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-base-port", strconv.Itoa(basePort))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// runAA runs the same code as two interleaved sets of runs per workload
// (A1 B1 A2 B2 …, run i of either set on seed i), as the driver does,
// and checks every end-to-end metric against the manifest's own bound:
// within a set the interquartile range over the median must stay within
// the bound (setup_s excepted), and neither set's median may be worse
// than the other's by more than the bound. It prints a Markdown report
// and fails on any breach.
func runAA(manifestPath, only string, runs, seconds, basePort int) error {
	if runs < 5 {
		return fmt.Errorf("-runs %d: quartiles of fewer than 5 runs say nothing", runs)
	}
	mf, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("# A/A: two interleaved sets of %d runs of the same code\n\n", runs)
	fmt.Printf("`-seconds %d`, seeds 1..%d in both sets. spread = (q3 − q1)/median with Python's\n"+
		"`statistics.quantiles(n=4)`; range = (max − min)/median, printed, not gated; gap = how much worse\n"+
		"the worse set's median is than the other's. A row fails when a spread (except `setup_s`'s) or the\n"+
		"gap exceeds the bound.\n\n", seconds, runs)
	printStamp(hostStamp(nil))
	breaches := 0
	for _, w := range mf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 1; i <= runs; i++ {
			for set := range sets {
				fmt.Fprintf(os.Stderr, "aa: %s run %d/%d set %c\n", w.Name, i, runs, 'A'+set)
				res, err := runChild(exe, w.Name, uint64(i), seconds, basePort)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Println("| metric | unit | bound | A median | A spread | A range | B median | B spread | B range | gap | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
		for _, e := range mf.EndToEnd {
			var med, spread, rng [2]float64
			for set := range sets {
				v := sets[set][e.Name]
				if len(v) != runs {
					return fmt.Errorf("%s: %s reported in %d of %d runs", w.Name, e.Name, len(v), runs)
				}
				q1, q2, q3 := quartiles(v)
				med[set], spread[set], rng[set] = q2, (q3-q1)/q2, (slices.Max(v)-slices.Min(v))/q2
			}
			gap := math.Abs(med[1]-med[0]) / math.Min(med[0], med[1])
			verdict := "ok"
			if gap > e.Bound || (e.Name != "setup_s" && math.Max(spread[0], spread[1]) > e.Bound) {
				verdict = "**BREACH**"
				breaches++
			}
			fmt.Printf("| `%s` | %s | %g | %.6g | %.4f | %.4f | %.6g | %.4f | %.4f | %.4f | %s |\n",
				e.Name, e.Unit, e.Bound, med[0], spread[0], rng[0], med[1], spread[1], rng[1], gap, verdict)
		}
		// Every run made, in the order made.
		fmt.Printf("\n| run |")
		for _, e := range mf.EndToEnd {
			fmt.Printf(" %s |", e.Name)
		}
		fmt.Printf("\n|---|%s\n", strings.Repeat("---|", len(mf.EndToEnd)))
		for i := 0; i < runs; i++ {
			for set := range sets {
				fmt.Printf("| %c%d |", 'A'+set, i+1)
				for _, e := range mf.EndToEnd {
					fmt.Printf(" %.6g |", sets[set][e.Name][i])
				}
				fmt.Println()
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d (workload, metric) pairs breach their bound", breaches)
	}
	fmt.Println("\nEvery (workload, metric) pair is within its bound.")
	return nil
}
