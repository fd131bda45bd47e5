package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kreach"
	"kreach/internal/server"
)

func TestParseSpec(t *testing.T) {
	sp, err := parseSpec("social,graph=g.txt,index=g.kri")
	if err != nil {
		t.Fatal(err)
	}
	if sp.name != "social" || sp.graphPath != "g.txt" || sp.indexPath != "g.kri" {
		t.Errorf("parsed %+v", sp)
	}
	sp, err = parseSpec("l,graph=g.txt,rungs=2+4+8,cover=greedy,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.rungs) != 3 || sp.rungs[2] != 8 || sp.seed != 9 {
		t.Errorf("parsed %+v", sp)
	}
	for _, bad := range []string{
		"",                          // no name
		"graph=g.txt",               // name looks like key=value
		"x",                         // missing graph
		"x,graph=g.txt,k=notanint",  // bad int
		"x,graph=g.txt,cover=bogus", // bad cover
		"x,graph=g.txt,index=i,k=3", // index excludes k
		"x,graph=g.txt,rungs=2,k=3", // rungs excludes k
		"x,graph=g.txt,h=2",         // h without k
		"x,graph=g.txt,k=5,h=0",     // h below 1
		"x,graph=g.txt,junk=1",      // unknown key
	} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestLoadDatasetBuildsEachKind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	// Header-less edge list: a 6-cycle.
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for spec, kind := range map[string]server.Kind{
		"a,graph=" + path:                server.KindPlain,
		"b,graph=" + path + ",k=3":       server.KindPlain,
		"c,graph=" + path + ",k=5,h=2":   server.KindHK,
		"d,graph=" + path + ",rungs=2+4": server.KindMulti,
	} {
		d, err := loadDataset(spec, false, "", kreach.SyncAlways, 0)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if d.Kind() != kind {
			t.Errorf("spec %q built kind %s, want %s", spec, d.Kind(), kind)
		}
		if d.Graph.NumVertices() != 6 || d.Graph.NumEdges() != 6 {
			t.Errorf("spec %q graph is %d/%d, want 6/6", spec, d.Graph.NumVertices(), d.Graph.NumEdges())
		}
	}
	if _, err := loadDataset("x,graph="+filepath.Join(dir, "missing.txt"), false, "", kreach.SyncAlways, 0); err == nil {
		t.Error("missing graph file accepted")
	}
}

func TestLoadDatasetMutableValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadDataset("m,graph="+path+",k=3", true, "", kreach.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Mutable(); d.Kind() != server.KindDynamic || !ok {
		t.Errorf("mutable dataset built kind %s", d.Kind())
	}
	for _, bad := range []string{
		"m,graph=" + path,                // no k: would be unbounded
		"m,graph=" + path + ",k=-1",      // unbounded explicit
		"m,graph=" + path + ",k=3,h=1",   // hk variant not mutable
		"m,graph=" + path + ",rungs=2+4", // ladder not mutable
	} {
		if _, err := loadDataset(bad, true, "", kreach.SyncAlways, 0); err == nil {
			t.Errorf("mutable spec %q accepted", bad)
		}
	}
}

// TestMutableEndToEnd drives the daemon's serving stack exactly as
// `kreachd -mutable -dataset ...` wires it: load the dataset from disk,
// serve it over HTTP, POST an edge and watch /v1/reach flip from false to
// true, compact, and verify answers survive the snapshot swap.
func TestMutableEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	// Two disconnected chains: 0→1→2 and 3→4.
	if err := os.WriteFile(path, []byte("0 1\n1 2\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadDataset("social,graph="+path+",k=4", true, "", kreach.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{}))
	defer ts.Close()

	post := func(url string, body any) (int, map[string]json.RawMessage) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	reach := func(s, tgt int) bool {
		t.Helper()
		status, out := post(ts.URL+"/v1/reach", map[string]int{"s": s, "t": tgt})
		if status != http.StatusOK {
			t.Fatalf("reach status %d: %v", status, out)
		}
		var ok bool
		if err := json.Unmarshal(out["reachable"], &ok); err != nil {
			t.Fatal(err)
		}
		return ok
	}

	if reach(0, 4) {
		t.Fatal("0→4 reachable before any mutation")
	}
	status, out := post(ts.URL+"/v1/datasets/social/edges", map[string]any{"add": [][2]int{{2, 3}}})
	if status != http.StatusOK {
		t.Fatalf("edges status %d: %v", status, out)
	}
	if !reach(0, 4) {
		t.Fatal("/v1/reach did not flip to true after the edge POST")
	}
	// On a graph this small the edge POST has already triggered a background
	// compaction; while that one runs an explicit one is refused with 409.
	for deadline := time.Now().Add(10 * time.Second); ; {
		status, out = post(ts.URL+"/v1/datasets/social/compact", nil)
		if status != http.StatusConflict || time.Now().After(deadline) {
			break
		}
	}
	if status != http.StatusOK {
		t.Fatalf("compact status %d: %v", status, out)
	}
	var edges int
	if err := json.Unmarshal(out["edges"], &edges); err != nil {
		t.Fatal(err)
	}
	if edges != 4 {
		t.Errorf("compacted edge count %d, want 4", edges)
	}
	if !reach(0, 4) {
		t.Error("0→4 lost across the compaction swap")
	}
	if reach(4, 0) {
		t.Error("4→0 reachable; direction lost somewhere")
	}
	// The swapped-in snapshot must still be mutable end to end.
	status, out = post(ts.URL+"/v1/datasets/social/edges", map[string]any{"remove": [][2]int{{2, 3}}})
	if status != http.StatusOK {
		t.Fatalf("post-compact edges status %d: %v", status, out)
	}
	if reach(0, 4) {
		t.Error("0→4 still reachable after removing the bridge post-compaction")
	}
}
