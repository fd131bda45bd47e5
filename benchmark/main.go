// Command benchmark is the repository's performance benchmark: four
// workloads that each take k-reach from graph to answers (build → load →
// probe → serve → mutate), verify every answer they sample against their
// own BFS oracle, and print the end-to-end metrics BENCHMARK.json gates,
// or, with -trace 1, the per-layer ledger. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric and its unit; BENCHMARK.json
// declares the same list with directions and bounds, and a test keeps the
// two from drifting apart.
var endToEndUnits = map[string]string{
	"setup_s":                      "s",
	"build_s":                      "s",
	"cold_start_s":                 "s",
	"index_mib":                    "MiB",
	"rss_mib":                      "MiB",
	"probe_per_s":                  "1/s",
	"batch_pairs_per_s":            "1/s",
	"ball_vertices_per_s":          "1/s",
	"mutate_edges_per_s":           "1/s",
	"read_under_write_pairs_per_s": "1/s",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "workload to run: lib-lattice, lib-hubs, http-static or http-tier")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "intended length of the measured part; scales the fixed operation counts")
		trace     = flag.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics instead")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of N runs of every workload and compare their medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	if *selfcheck > 0 {
		return runSelfcheck(root, *selfcheck, *seed, *seconds)
	}
	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// Everything the run writes lives under .bench_build in the checkout.
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)
	binDir := filepath.Join(buildDir, "bin")
	// Compiled before any clock starts. The lib workloads' untraced runs
	// start no daemon and skip this.
	needDaemons := sp.transport != viaLibrary || *trace == 1
	if needDaemons {
		if err := buildBinaries(root, binDir); err != nil {
			return fail(err)
		}
	}
	dep := newExecDeployer(binDir, workDir)
	defer dep.killAll()
	// A signal must not leave children behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		dep.killAll()
		os.RemoveAll(workDir)
		os.Exit(130)
	}()

	r := &runner{
		sp:      sp.scaled(*seconds / defaultSeconds),
		scale:   *seconds / defaultSeconds,
		seed:    *seed,
		dep:     dep,
		workDir: workDir,
		callers: runtime.NumCPU(),
		log:     func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	// The deferred calls above stop the children and remove the run's
	// directory on every return below.
	if *trace == 1 {
		tracePath := filepath.Join(buildDir, "trace.json")
		layers, host, err := r.trace(tracePath)
		if err != nil {
			return fail(err)
		}
		reportHost(host, r.tally)
		fmt.Printf("spans written to %s\n", tracePath)
		return emit(layers, perLayerUnits, r.tally)
	}
	metrics, host, err := r.run()
	if err != nil {
		return fail(err)
	}
	reportHost(host, r.tally)
	return emit(metrics, endToEndUnits, r.tally)
}

// reportHost prints the run's validity lines: whether the host interfered
// and how the answers checked out.
func reportHost(host hostReport, t tally) {
	if host.suspect {
		fmt.Printf("suspect: %s\n", host.suspectWhy)
	}
	fmt.Printf("ok_ratio %.6f (%d attempted, %d failed, %d checked against the oracle)\n",
		t.okRatio(), t.attempted, t.failed, t.checked)
	if t.firstFailure != "" {
		fmt.Printf("first failure: %s\n", t.firstFailure)
	}
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}

// emit prints every metric by name with its unit, then the result line.
func emit(values map[string]float64, units map[string]string, t tally) int {
	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{}}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := values[name]
		if !ok {
			return fail(fmt.Errorf("metric %s was not measured", name))
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Printf("%-32s %14.6g %s\n", name, v, units[name])
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			return fail(fmt.Errorf("metric %s is measured but not declared", name))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}
