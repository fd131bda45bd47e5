package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kreach"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/server"
)

// genGraph generates a small citation-family graph through the public API.
func genGraph(t *testing.T, seed uint64) (*kreach.Graph, *graph.Graph) {
	t.Helper()
	g := gen.Spec{Family: gen.Citation, N: 200, M: 700, Seed: seed, Window: 40}.Generate()
	return kreach.WrapInternal(g), g
}

// newTestServer builds a registry with one dataset of each kind over the
// same graph, so every handler path is reachable.
func newTestServer(t *testing.T, cfg server.Config) (*httptest.Server, *kreach.Graph) {
	t.Helper()
	g, _ := genGraph(t, 7)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 2, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{Rungs: kreach.PowerOfTwoRungs(8), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	for _, d := range []*server.Dataset{
		{Name: "plain", Graph: g, Reacher: plain},
		{Name: "hk", Graph: g, Reacher: hk},
		{Name: "multi", Graph: g, Reacher: multi},
	} {
		if err := reg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(reg, cfg))
	t.Cleanup(ts.Close)
	return ts, g
}

func post(t *testing.T, url string, body any) (int, map[string]json.RawMessage) {
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
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func field[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing %q: %v", key, m)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts, g := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Default  string `json:"default"`
		Datasets []struct {
			Name     string `json:"name"`
			Kind     string `json:"kind"`
			Vertices int    `json:"vertices"`
			Edges    int    `json:"edges"`
			K        *int   `json:"k"`
			H        *int   `json:"h"`
			Rungs    []int  `json:"rungs"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Default != "plain" || len(body.Datasets) != 3 {
		t.Fatalf("stats = %+v", body)
	}
	kinds := map[string]string{}
	for _, d := range body.Datasets {
		kinds[d.Name] = d.Kind
		if d.Vertices != g.NumVertices() || d.Edges != g.NumEdges() {
			t.Errorf("dataset %s reports %d/%d, want %d/%d",
				d.Name, d.Vertices, d.Edges, g.NumVertices(), g.NumEdges())
		}
		switch d.Name {
		case "plain":
			if d.K == nil || *d.K != 4 {
				t.Errorf("plain k = %v", d.K)
			}
		case "hk":
			if d.H == nil || *d.H != 2 || d.K == nil || *d.K != 6 {
				t.Errorf("hk h/k = %v/%v", d.H, d.K)
			}
		case "multi":
			if len(d.Rungs) == 0 {
				t.Error("multi has no rungs")
			}
		}
	}
	if kinds["plain"] != "kreach" || kinds["hk"] != "hkreach" || kinds["multi"] != "multi" {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestReachSingle(t *testing.T) {
	ts, g := newTestServer(t, server.Config{})
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 25; s++ {
		for tt := 0; tt < 25; tt++ {
			status, body := post(t, ts.URL+"/v1/reach", map[string]any{"s": s, "t": tt})
			if status != http.StatusOK {
				t.Fatalf("status %d: %v", status, body)
			}
			if got, want := field[bool](t, body, "reachable"), plain.Reach(s, tt); got != want {
				t.Fatalf("reach(%d,%d) = %v, want %v", s, tt, got, want)
			}
		}
	}
	// Named graph + per-query k on the multi dataset.
	status, body := post(t, ts.URL+"/v1/reach", map[string]any{"graph": "multi", "s": 0, "t": 0, "k": 2})
	if status != http.StatusOK || field[string](t, body, "verdict") != "yes" {
		t.Fatalf("multi self query: status=%d body=%v", status, body)
	}
}

func TestReachErrors(t *testing.T) {
	ts, g := newTestServer(t, server.Config{})
	n := g.NumVertices()
	for _, tc := range []struct {
		name   string
		body   any
		status int
	}{
		{"unknown graph", map[string]any{"graph": "nope", "s": 0, "t": 1}, http.StatusNotFound},
		{"source out of range", map[string]any{"s": n, "t": 1}, http.StatusBadRequest},
		{"negative target", map[string]any{"s": 0, "t": -1}, http.StatusBadRequest},
		{"k on fixed-k dataset", map[string]any{"s": 0, "t": 1, "k": 9}, http.StatusBadRequest},
		{"unknown field", map[string]any{"s": 0, "t": 1, "bogus": true}, http.StatusBadRequest},
	} {
		status, body := post(t, ts.URL+"/v1/reach", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.status, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: no error message", tc.name)
		}
	}
	// Matching k on a fixed-k dataset is accepted.
	if status, body := post(t, ts.URL+"/v1/reach", map[string]any{"s": 0, "t": 1, "k": 4}); status != http.StatusOK {
		t.Errorf("matching k rejected: %d %v", status, body)
	}
	// Bad JSON.
	resp, err := http.Post(ts.URL+"/v1/reach", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/reach")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reach: status %d", resp.StatusCode)
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	ts, g := newTestServer(t, server.Config{Parallelism: 4})
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var pairs [][2]int
	for s := 0; s < n; s += 3 {
		for tt := 0; tt < n; tt += 3 {
			pairs = append(pairs, [2]int{s, tt})
		}
	}
	status, body := post(t, ts.URL+"/v1/batch", map[string]any{"pairs": pairs})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, body)
	}
	results := field[[]bool](t, body, "results")
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	for i, p := range pairs {
		if want := plain.Reach(p[0], p[1]); results[i] != want {
			t.Fatalf("pair %v = %v, want %v", p, results[i], want)
		}
	}
}

func TestBatchMultiVerdicts(t *testing.T) {
	ts, g := newTestServer(t, server.Config{})
	multi, err := kreach.BuildMultiIndex(g, kreach.MultiOptions{Rungs: kreach.PowerOfTwoRungs(8), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {0, 0}, {5, 40}, {17, 3}}
	status, body := post(t, ts.URL+"/v1/batch", map[string]any{"graph": "multi", "pairs": pairs, "k": 3})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, body)
	}
	verdicts := field[[]string](t, body, "verdicts")
	results := field[[]bool](t, body, "results")
	for i, p := range pairs {
		verdict, _ := multi.Reach(p[0], p[1], 3)
		if verdicts[i] != verdict.String() {
			t.Errorf("pair %v verdict %q, want %q", p, verdicts[i], verdict)
		}
		if results[i] != (verdict != kreach.No) {
			t.Errorf("pair %v result %v inconsistent with verdict %q", p, results[i], verdicts[i])
		}
	}
}

func TestBatchErrors(t *testing.T) {
	ts, g := newTestServer(t, server.Config{MaxBatch: 4})
	n := g.NumVertices()
	for _, tc := range []struct {
		name   string
		body   any
		status int
	}{
		{"too large", map[string]any{"pairs": [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}}, http.StatusRequestEntityTooLarge},
		{"out of range pair", map[string]any{"pairs": [][2]int{{0, n}}}, http.StatusBadRequest},
		{"unknown graph", map[string]any{"graph": "nope", "pairs": [][2]int{{0, 1}}}, http.StatusNotFound},
		{"one-id pair", json.RawMessage(`{"pairs":[[5]]}`), http.StatusBadRequest},
		{"three-id pair", json.RawMessage(`{"pairs":[[1,2,3]]}`), http.StatusBadRequest},
		{"null pair", json.RawMessage(`{"pairs":[null]}`), http.StatusBadRequest},
	} {
		status, body := post(t, ts.URL+"/v1/batch", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.status, body)
		}
	}
	// Empty batch is fine.
	if status, body := post(t, ts.URL+"/v1/batch", map[string]any{"pairs": [][2]int{}}); status != http.StatusOK {
		t.Errorf("empty batch: %d %v", status, body)
	}
	// An oversized body is rejected by the byte cap while streaming, before
	// the decoder can buffer it all (MaxBatch=4 caps the body at ~4.3 KB).
	big := make([][2]int, 2000)
	status, body := post(t, ts.URL+"/v1/batch", map[string]any{"pairs": big})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%v)", status, body)
	}
}

// TestConcurrentClients hammers /v1/batch and /v1/reach from many clients
// at once — with -race this is the serving-layer thread-safety check the
// acceptance criteria ask for.
func TestConcurrentClients(t *testing.T) {
	ts, g := newTestServer(t, server.Config{Parallelism: 4})
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var pairs [][2]int
	want := make(map[[2]int]bool)
	for s := 0; s < n; s += 5 {
		for tt := 1; tt < n; tt += 7 {
			pairs = append(pairs, [2]int{s, tt})
			want[[2]int{s, tt}] = plain.Reach(s, tt)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if client%2 == 0 {
					status, body := post(t, ts.URL+"/v1/batch", map[string]any{"graph": pick(client, round), "pairs": pairs})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d: batch status %d", client, status)
						return
					}
					if pick(client, round) == "plain" {
						results := field[[]bool](t, body, "results")
						for i, p := range pairs {
							if results[i] != want[p] {
								errs <- fmt.Errorf("client %d: pair %v = %v, want %v", client, p, results[i], want[p])
								return
							}
						}
					}
				} else {
					p := pairs[(client*31+round*17)%len(pairs)]
					status, body := post(t, ts.URL+"/v1/reach", map[string]any{"s": p[0], "t": p[1]})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d: reach status %d", client, status)
						return
					}
					if got := field[bool](t, body, "reachable"); got != want[p] {
						errs <- fmt.Errorf("client %d: reach(%v) = %v, want %v", client, p, got, want[p])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pick rotates batch clients over the three datasets so plain, hk and multi
// all see concurrent traffic.
func pick(client, round int) string {
	switch (client + round) % 3 {
	case 0:
		return "plain"
	case 1:
		return "hk"
	default:
		return "multi"
	}
}

func TestRegistryValidation(t *testing.T) {
	g, _ := genGraph(t, 9)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "", Graph: g, Reacher: plain}); err == nil {
		t.Error("nameless dataset accepted")
	}
	if err := reg.Add(&server.Dataset{Name: "x", Graph: g}); err == nil {
		t.Error("index-less dataset accepted")
	}
	if err := reg.Add(&server.Dataset{Name: "x", Reacher: plain}); err == nil {
		t.Error("graph-less dataset accepted")
	}
	if err := reg.Add(&server.Dataset{Name: "x", Graph: g, Reacher: plain}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(&server.Dataset{Name: "x", Graph: g, Reacher: hk}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := reg.Lookup(""); err != nil {
		t.Errorf("default lookup failed: %v", err)
	}
	if _, err := server.NewRegistry().Lookup(""); err == nil {
		t.Error("default lookup on empty registry succeeded")
	}
}

// plainServer is an in-process server with one k=4 dataset named "plain".
func plainServer(t *testing.T, cfg server.Config) (*server.Server, *kreach.Graph) {
	t.Helper()
	g, _ := genGraph(t, 7)
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "plain", Graph: g, Reacher: plain}); err != nil {
		t.Fatal(err)
	}
	return server.New(reg, cfg), g
}

// TestBatchAllocsIndependentOfSize pins the /v1/batch allocation budget:
// decode, validation, ReachBatch and encode allocate the same number of
// objects for 64 pairs as for 4096 — buffers grow in bytes, never in count.
func TestBatchAllocsIndependentOfSize(t *testing.T) {
	srv, g := plainServer(t, server.Config{Parallelism: 1})
	allocs := func(n int) float64 {
		pairs := make([][2]int, n)
		for i := range pairs {
			pairs[i] = [2]int{i % g.NumVertices(), (i * 7) % g.NumVertices()}
		}
		body, err := json.Marshal(map[string]any{"graph": "plain", "pairs": pairs})
		if err != nil {
			t.Fatal(err)
		}
		// The fewest objects over repeated requests: the steady state, with
		// pooled scratch warm. An average would also count the pool misses
		// the race detector injects by dropping Puts.
		least := math.Inf(1)
		for range 20 {
			least = min(least, testing.AllocsPerRun(1, func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}))
		}
		return least
	}
	small, large := allocs(64), allocs(4096)
	t.Logf("objects per request: %.1f at 64 pairs, %.1f at 4096", small, large)
	if large > small+3 {
		t.Fatalf("4096 pairs allocate %.1f objects, 64 pairs %.1f: allocations grow with the batch", large, small)
	}
}

// TestBatchIgnoresClaimedContentLength: a request whose Content-Length
// claims a body near the cap but which sends a few bytes costs a few bytes.
// The claim is the client's word, so it must not size the read buffer.
func TestBatchIgnoresClaimedContentLength(t *testing.T) {
	srv, _ := plainServer(t, server.Config{})
	const claim, requests = 32 << 20, 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`{"graph":"plain","pairs":[[0,1]]}`))
		req.ContentLength = claim
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > claim/4 {
		t.Fatalf("%d requests claiming %d bytes each allocated %d bytes", requests, claim, grown)
	}
}
