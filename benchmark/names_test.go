package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"kreach"
	"kreach/internal/router"
	"kreach/internal/server"
)

// inProcess stands in for the real daemons under `go test`: the same
// serving code behind httptest listeners, wired the way cmd/kreachd and
// cmd/kreach-router wire it, but no child processes.
type inProcess struct{}

func selfNode(name string, ts *httptest.Server, stop func()) *node {
	return &node{name: name, url: ts.URL, pid: os.Getpid(), stop: stop, failed: func() error { return nil }}
}

func loadGraphFile(path string) (*kreach.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kreach.LoadBinary(f)
}

// daemonOptions are the dynamic-index options kreachd derives from a
// "-dataset g,graph=…,k=K" spec.
func daemonOptions(k int) kreach.DynamicOptions {
	return kreach.DynamicOptions{K: k, Cover: kreach.DegreePrioritizedCover, Seed: 1}
}

func (inProcess) static(graphPath, indexPath string) (*node, error) {
	g, err := loadGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	xf, err := os.Open(indexPath)
	if err != nil {
		return nil, err
	}
	defer xf.Close()
	re, err := kreach.LoadAutoReacher(xf, g)
	if err != nil {
		return nil, err
	}
	h, err := newHandler(g, re, nil, 0)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(h)
	return selfNode("static", ts, ts.Close), nil
}

func (inProcess) primary(graphPath, walDir string, k int) (*node, error) {
	g, err := loadGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	dyn, base, wal, err := kreach.OpenDurableDynamicIndex(g, daemonOptions(k),
		kreach.DurableOptions{Dir: filepath.Join(walDir, datasetName), Sync: kreach.SyncAlways})
	if err != nil {
		return nil, err
	}
	h, err := newHandler(base, dyn, wal, 0)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(h)
	return selfNode("primary", ts, func() {
		ts.CloseClientConnections() // a follower may be parked on the feed
		ts.Close()
		wal.Close()
	}), nil
}

func (inProcess) follower(graphPath string, k int, primaryURL string) (*node, error) {
	g, err := loadGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	f, err := server.NewFollower(server.FollowerConfig{
		Primary: primaryURL, Dataset: datasetName, Registry: reg, Options: daemonOptions(k)})
	if err != nil {
		return nil, err
	}
	d, err := f.Bootstrap(g)
	if err != nil {
		return nil, err
	}
	if err := reg.Add(d); err != nil {
		return nil, err
	}
	app := server.New(reg, server.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	if err := f.WaitCaughtUp(ctx); err != nil {
		cancel()
		return nil, err
	}
	app.MarkReady()
	ts := httptest.NewServer(app)
	return selfNode("follower", ts, func() {
		cancel()
		<-done
		ts.Close()
	}), nil
}

func (inProcess) router(primaryURL string, replicaURLs []string) (*node, error) {
	rt, err := router.New(router.Config{Replicas: replicaURLs, Primary: primaryURL})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.ProbeAll(ctx)
	rt.Start(ctx)
	ts := httptest.NewServer(rt)
	return selfNode("router", ts, func() {
		cancel()
		ts.Close()
	}), nil
}

// tinyRunner is a workload shrunk until a whole run takes a fraction of a
// second: a few thousand vertices, a handful of operations per pass, and a
// hop bound of 2 (at 3000 vertices a 4-hop ball is most of a small world,
// and every mutation would rebuild most of the index).
func tinyRunner(t *testing.T, sp spec) *runner {
	sp.vertices, sp.k = 3000, 2
	sp.pairs, sp.batchPairs, sp.balls, sp.mutations, sp.underWritePair = 40, 200, 16, 2, 200
	return &runner{sp: sp, scale: 0.0005, seed: 1, dep: inProcess{}, workDir: t.TempDir(), callers: 2,
		log: func(string, ...any) {}}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	gotSet, wantSet := map[string]bool{}, map[string]bool{}
	for _, n := range got {
		if gotSet[n] {
			t.Errorf("%s: %q appears twice", what, n)
		}
		gotSet[n] = true
	}
	for _, n := range want {
		wantSet[n] = true
		if !gotSet[n] {
			t.Errorf("%s: %q is declared but missing", what, n)
		}
	}
	for _, n := range got {
		if !wantSet[n] {
			t.Errorf("%s: %q is present but not declared", what, n)
		}
	}
}

// The name-drift smoke test: BENCHMARK.json, the unit tables in the code,
// and what each workload actually emits, untraced and traced, must list
// the same names with the same units; and every run must verify clean.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	m, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, but the workloads' operation counts are sized for %d", m.RunSeconds, defaultSeconds)
	}

	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
		if sp, ok := findSpec(w.Name); ok && sp.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the code give different reasons", w.Name)
		}
	}
	var inCode []string
	for _, sp := range specs {
		inCode = append(inCode, sp.name)
	}
	sameNames(t, "workloads", declared, inCode)

	declared = nil
	sawSetup := false
	for _, g := range m.EndToEnd {
		declared = append(declared, g.Name)
		if unit := endToEndUnits[g.Name]; unit != g.Unit {
			t.Errorf("end_to_end %s: unit %q in BENCHMARK.json, %q in code", g.Name, g.Unit, unit)
		}
		if g.Bound <= 0 || g.Bound > 0.25 || (g.Better != "lower" && g.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", g.Name, g.Bound, g.Better)
		}
		sawSetup = sawSetup || (g.Name == "setup_s" && g.Unit == "s" && g.Better == "lower")
	}
	sameNames(t, "end_to_end", declared, sortedKeys(endToEndUnits))
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	declared = nil
	for _, p := range m.PerLayer {
		declared = append(declared, p.Name)
		if unit := perLayerUnits[p.Name]; unit != p.Unit {
			t.Errorf("per_layer %s: unit %q in BENCHMARK.json, %q in code", p.Name, p.Unit, unit)
		}
	}
	sameNames(t, "per_layer", declared, sortedKeys(perLayerUnits))

	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			start := time.Now()
			r := tinyRunner(t, sp)
			metrics, _, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, "untraced run", sortedKeys(metrics), sortedKeys(endToEndUnits))
			for name, v := range metrics {
				if !(v > 0) {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}
			if r.tally.failed != 0 || r.tally.checked == 0 {
				t.Errorf("untraced run: %d failed, %d checked: %s", r.tally.failed, r.tally.checked, r.tally.firstFailure)
			}

			r = tinyRunner(t, sp)
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			layers, _, err := r.trace(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, "traced run", sortedKeys(layers), sortedKeys(perLayerUnits))
			if r.tally.failed != 0 || r.tally.checked == 0 {
				t.Errorf("traced run: %d failed, %d checked: %s", r.tally.failed, r.tally.checked, r.tally.firstFailure)
			}
			if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
			t.Logf("both runs took %v", time.Since(start))
		})
	}
}
