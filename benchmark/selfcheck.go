package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json: what the benchmark promises to report and
// how far each gated number may worsen.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gatedMetric  `json:"end_to_end"`
	PerLayer []manifestUnit `json:"per_layer"`
}

type manifestUnit struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type gatedMetric struct {
	manifestUnit
	Bound float64 `json:"bound"`
}

func readManifest(root string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), which
// is what judges this benchmark's steadiness.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		frac := pos - float64(lo)
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// oneRun re-executes this program for one untraced run and returns its
// result line and whether the run marked itself suspect.
func oneRun(self, root, workload string, seed uint64, seconds float64) (result, string, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	var last, suspect string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if why, ok := strings.CutPrefix(last, "suspect: "); ok {
			suspect = why
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, "", fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return res, suspect, nil
}

// runSelfcheck measures the benchmark's own steadiness the way its judge
// does: per workload, two sets of n runs of this same build, each run on
// another seed. A metric passes when, in both sets, the distance between
// the quartiles is within its bound as a share of the median, and the
// second set's median is not worse than the first's by more than the
// bound. setup_s is exempt from the first condition. Suspect runs are
// listed, not dropped: a set that needs them dropped to pass has not
// passed.
func runSelfcheck(root string, n int, seed uint64, seconds float64) int {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs at least 5 runs per set")
		return 2
	}
	m, err := readManifest(root)
	if err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	failures, suspects := 0, 0
	for _, w := range m.Workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				s := seed + uint64(set*n+i)
				res, suspect, err := oneRun(self, root, w.Name, s, seconds)
				if err != nil {
					return fail(err)
				}
				if suspect != "" {
					suspects++
					fmt.Printf("%s set %d seed %d SUSPECT: %s\n", w.Name, set+1, s, suspect)
				}
				if !res.Correct {
					failures++
					fmt.Printf("%s set %d seed %d FAIL: %d of %d operations failed\n", w.Name, set+1, s, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("\n%s\n%-30s %12s %12s %8s %8s %8s %6s\n", w.Name, "metric", "median 1", "median 2", "spread 1", "spread 2", "gap", "bound")
		for _, g := range m.EndToEnd {
			a1, m1, b1 := quartiles(sets[0][g.Name])
			a2, m2, b2 := quartiles(sets[1][g.Name])
			spread1, spread2 := (b1-a1)/m1, (b2-a2)/m2
			gap := (m2 - m1) / m1 // positive = the second set reads higher
			if g.Better == "higher" {
				gap = -gap
			}
			verdict := "PASS"
			if gap > g.Bound || (g.Name != "setup_s" && (spread1 > g.Bound || spread2 > g.Bound)) {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%-30s %12.5g %12.5g %8.3f %8.3f %+8.3f %6.2f %s\n", g.Name, m1, m2, spread1, spread2, gap, g.Bound, verdict)
		}
	}
	fmt.Printf("\n%d failures, %d suspect runs\n", failures, suspects)
	if failures > 0 {
		return 1
	}
	return 0
}
