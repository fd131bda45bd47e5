package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kreach"
	"kreach/internal/gen"
	"kreach/internal/server"
)

// testGraph generates the shared graph every backend replica serves.
func testGraph(t *testing.T) *kreach.Graph {
	t.Helper()
	g := gen.Spec{Family: gen.Citation, N: 300, M: 1100, Seed: 11, Window: 50}.Generate()
	return kreach.WrapInternal(g)
}

// testDataset builds a reloadable dataset: the loader rebuilds the index,
// which necessarily mints a fresh epoch — exactly what a reload does in
// production.
func testDataset(t *testing.T, g *kreach.Graph, name string) *server.Dataset {
	t.Helper()
	build := func() (*server.Dataset, error) {
		idx, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 4, Seed: 1})
		if err != nil {
			return nil, err
		}
		return &server.Dataset{Name: name, Graph: g, Reacher: idx}, nil
	}
	d, err := build()
	if err != nil {
		t.Fatal(err)
	}
	d.Loader = build
	return d
}

// backend is one real kreachd serving stack over httptest, counting the
// queries (POSTs; probes are GETs) it was sent.
type backend struct {
	*httptest.Server
	queries atomic.Int64
}

func startBackend(t *testing.T, g *kreach.Graph) *backend {
	t.Helper()
	reg := server.NewRegistry()
	if err := reg.Add(testDataset(t, g, "g")); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{})
	srv.MarkReady()
	b := &backend{}
	b.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			b.queries.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(b.Close)
	return b
}

// startTier runs n backends plus a router over them, all in-process.
func startTier(t *testing.T, n int, cfg Config) (*Router, []*backend, *kreach.Graph) {
	t.Helper()
	g := testGraph(t)
	backends := make([]*backend, n)
	for i := range backends {
		backends[i] = startBackend(t, g)
		cfg.Replicas = append(cfg.Replicas, backends[i].URL)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, backends, g
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// routedReply is the router's merged /v1/batch response.
type routedReply struct {
	Graph      string   `json:"graph"`
	Count      int      `json:"count"`
	Results    []bool   `json:"results"`
	Verdicts   []string `json:"verdicts"`
	EffectiveK []int    `json:"effective_k"`
	Legs       int      `json:"legs"`
}

func randPairs(n, vertices int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(vertices), rng.Intn(vertices)}
	}
	return pairs
}

// TestRouterBatchMatchesBackend: a batch through the router must return
// exactly what a single backend returns — scatter, gather and reassembly
// are invisible to the client.
func TestRouterBatchMatchesBackend(t *testing.T) {
	rt, backends, g := startTier(t, 3, Config{LegPairs: 16})
	pairs := randPairs(200, g.NumVertices(), 1)
	body := map[string]any{"graph": "g", "pairs": pairs}

	resp, err := http.Post(backends[0].URL+"/v1/batch", "application/json",
		bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	var direct server.BatchReply
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	code, raw := postJSON(t, rt, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("router batch: status %d: %s", code, raw)
	}
	var routed routedReply
	if err := json.Unmarshal(raw, &routed); err != nil {
		t.Fatal(err)
	}
	if routed.Count != len(pairs) || len(routed.Results) != len(pairs) {
		t.Fatalf("router batch: count %d, results %d, want %d", routed.Count, len(routed.Results), len(pairs))
	}
	if routed.Legs < 2 {
		t.Fatalf("expected the batch to scatter into multiple legs, got %d", routed.Legs)
	}
	for i := range pairs {
		if routed.Results[i] != direct.Results[i] {
			t.Fatalf("pair %d (%v): router says %v, backend says %v",
				i, pairs[i], routed.Results[i], direct.Results[i])
		}
	}
}

// TestRouterReachMatchesBackend: a /v1/reach proxied through the router
// carries the backend's answer.
func TestRouterReachMatchesBackend(t *testing.T) {
	rt, backends, _ := startTier(t, 3, Config{})
	body := map[string]any{"graph": "g", "s": 5, "t": 9}
	code, raw := postJSON(t, rt, "/v1/reach", body)
	if code != http.StatusOK {
		t.Fatalf("reach via router: status %d: %s", code, raw)
	}
	resp, err := http.Post(backends[0].URL+"/v1/reach", "application/json",
		bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	directRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var viaRouter, direct map[string]any
	mustUnmarshal(t, raw, &viaRouter)
	mustUnmarshal(t, directRaw, &direct)
	if viaRouter["reachable"] != direct["reachable"] {
		t.Fatalf("router answer %v != backend answer %v", viaRouter["reachable"], direct["reachable"])
	}
}

// TestRouterPlacement pins the placement policy: least in-flight among
// the routable replicas, ties rotated. Each case perturbs replica 0 of a
// three-replica tier and then sends sequential queries, so the other two
// stay tied at zero in flight.
func TestRouterPlacement(t *testing.T) {
	rt, backends, g := startTier(t, 3, Config{})
	cases := []struct {
		name    string
		perturb func(rep *Replica) (undo func())
		target  bool // replica 0 still receives queries
		listed  bool // replica 0 still appears in candidates()
	}{
		{"equal load rotates", func(*Replica) func() { return func() {} }, true, true},
		{"busier replica is last choice", func(rep *Replica) func() {
			rep.inflight.Add(5)
			return func() { rep.inflight.Add(-5) }
		}, false, true},
		{"draining", func(rep *Replica) func() {
			rep.draining.Store(true)
			return func() { rep.draining.Store(false) }
		}, false, false},
		{"lag-demoted", func(rep *Replica) func() {
			rep.setLag(9, 9, true)
			return func() { rep.setLag(0, 0, false) }
		}, false, false},
		{"ejected", func(rep *Replica) func() {
			rep.noteFailure(1, nil)
			return rep.noteSuccess
		}, false, false},
		{"backend not ready", func(rep *Replica) func() {
			rep.ready.Store(false)
			return func() { rep.ready.Store(true) }
		}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.perturb(rt.replicas[0])()
			before := make([]int64, len(backends))
			for i, b := range backends {
				before[i] = b.queries.Load()
			}
			for i := 0; i < 6; i++ {
				cands := rt.candidates()
				if listed := slices.Contains(cands, rt.replicas[0]); listed != tc.listed {
					t.Fatalf("replica 0 in candidates(): %v, want %v", listed, tc.listed)
				}
				if !tc.target && cands[0] == rt.replicas[0] {
					t.Fatal("candidates() targets replica 0")
				}
			}
			for i := 0; i < 6; i++ {
				if code, raw := postJSON(t, rt, "/v1/reach", map[string]any{"graph": "g", "s": i, "t": 9}); code != http.StatusOK {
					t.Fatalf("reach: status %d: %s", code, raw)
				}
			}
			for i, b := range backends {
				got := b.queries.Load() - before[i]
				if want := i > 0 || tc.target; (got > 0) != want {
					t.Errorf("replica %d served %d of 6 queries; should serve any: %v", i, got, want)
				}
			}
		})
	}

	// A batch within LegPairs is one leg: one request to one replica.
	var before int64
	for _, b := range backends {
		before += b.queries.Load()
	}
	code, raw := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "g", "pairs": randPairs(50, g.NumVertices(), 3)})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	var routed routedReply
	mustUnmarshal(t, raw, &routed)
	after := -before
	for _, b := range backends {
		after += b.queries.Load()
	}
	if routed.Legs != 1 || after != 1 {
		t.Fatalf("50-pair batch: legs %d, backend requests %d, want 1 and 1", routed.Legs, after)
	}
}

// TestRouterFailover: SIGKILL-equivalent (closed backend) mid-tier — every
// batch still answers completely and correctly via retries, and the dead
// replica is demoted out of rotation.
func TestRouterFailover(t *testing.T) {
	rt, backends, g := startTier(t, 3, Config{LegPairs: 8, RetryBackoff: time.Millisecond})
	pairs := randPairs(120, g.NumVertices(), 2)
	body := map[string]any{"graph": "g", "pairs": pairs}

	// Oracle from a live backend first.
	resp, err := http.Post(backends[0].URL+"/v1/batch", "application/json",
		bytes.NewReader(mustJSON(t, body)))
	if err != nil {
		t.Fatal(err)
	}
	var direct server.BatchReply
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	backends[1].Close() // hard kill: connections refused from here on

	code, raw := postJSON(t, rt, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch with one dead replica: status %d: %s", code, raw)
	}
	var routed routedReply
	mustUnmarshal(t, raw, &routed)
	for i := range pairs {
		if routed.Results[i] != direct.Results[i] {
			t.Fatalf("pair %d: wrong answer after failover", i)
		}
	}
	// The request path demoted the dead replica without waiting for a probe.
	dead := rt.replicas[1]
	if dead.State() == StateHealthy {
		t.Fatalf("dead replica still %s after failed legs", dead.State())
	}
	if dead.Routable() {
		t.Fatal("dead replica still routable")
	}
}

// TestRouterAllDead: with every replica unroutable the router answers a
// typed 503, not a hang or a wrong answer.
func TestRouterAllDead(t *testing.T) {
	rt, backends, _ := startTier(t, 2, Config{RetryBackoff: time.Millisecond})
	for _, b := range backends {
		b.Close()
	}
	// One probe round observes the deaths and demotes both replicas.
	rt.ProbeAll(context.Background())
	code, raw := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "g", "pairs": [][2]int{{1, 2}}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, raw)
	}
	var e routerError
	mustUnmarshal(t, raw, &e)
	if e.Code != CodeNoReplicas {
		t.Fatalf("code %q, want %q", e.Code, CodeNoReplicas)
	}
	// readyz mirrors the same verdict.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no replicas: %d", w.Code)
	}
}

// TestRouterProbeObservesState: the prober learns identity, epochs and
// readiness; a backend that starts draining drops out of rotation at the
// next probe while remaining healthy (alive, finishing its work).
func TestRouterProbeObservesState(t *testing.T) {
	rt, backends, _ := startTier(t, 1, Config{})
	rt.ProbeAll(context.Background())
	rep := rt.replicas[0]
	instance, epochs, _, lastProbe := rep.snapshot()
	if instance == "" {
		t.Fatal("probe did not record instance id")
	}
	if epochs["g"] == 0 {
		t.Fatal("probe did not record dataset epoch")
	}
	if lastProbe.IsZero() {
		t.Fatal("probe did not record its time")
	}
	if !rep.Routable() {
		t.Fatal("ready backend not routable after probe")
	}

	// Backend starts draining (SIGTERM path): alive, answering, unroutable.
	resp, err := http.Post(backends[0].URL+"/v1/admin/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rt.ProbeAll(context.Background())
	if rep.Routable() {
		t.Fatal("draining backend still routable")
	}
	if rep.State() != StateHealthy {
		t.Fatalf("draining backend demoted to %s; draining is not a failure", rep.State())
	}
}

// TestRouterEpochFenceRedispatch: a replica that reloads mid-gather
// answers legs under two epochs; the fence catches it and the re-dispatch
// converges on the new epoch — the client sees one clean answer.
func TestRouterEpochFenceRedispatch(t *testing.T) {
	stub := newStubBackend(t, func(n int64) uint64 {
		if n == 1 {
			return 7 // first leg answered under the old index generation
		}
		return 8
	})
	rt, err := New(Config{Replicas: []string{stub.URL}, LegPairs: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "g", "pairs": [][2]int{{1, 2}, {3, 4}}})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if got := rt.metrics.fences.Value(); got == 0 {
		t.Fatal("fence did not record the mixed-epoch gather")
	}
	var routed routedReply
	mustUnmarshal(t, raw, &routed)
	if len(routed.Results) != 2 {
		t.Fatalf("results %d, want 2", len(routed.Results))
	}
}

// TestRouterEpochFenceRejects: a replica that keeps flapping between
// epochs cannot be merged; the router answers a typed 502 rather than a
// response mixing index generations.
func TestRouterEpochFenceRejects(t *testing.T) {
	stub := newStubBackend(t, func(n int64) uint64 {
		return uint64(n) // a fresh epoch every call: the gather can never converge
	})
	rt, err := New(Config{Replicas: []string{stub.URL}, LegPairs: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	code, raw := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "g", "pairs": [][2]int{{1, 2}, {3, 4}}})
	if code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", code, raw)
	}
	var e routerError
	mustUnmarshal(t, raw, &e)
	if e.Code != CodeMixedEpoch {
		t.Fatalf("code %q, want %q", e.Code, CodeMixedEpoch)
	}
}

// newStubBackend fakes the /v1/batch surface with a controllable epoch per
// call — the only way to force a mid-gather reload deterministically.
func newStubBackend(t *testing.T, epochOf func(call int64) uint64) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var req server.BatchRequest
		if err == nil {
			err = server.DecodeBatchRequest(body, &req)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := calls.Add(1)
		resp := server.BatchReply{
			Graph:   req.Graph,
			Epoch:   epochOf(n),
			Count:   len(req.Pairs),
			Results: make([]bool, len(req.Pairs)),
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(server.AppendBatchReply(nil, &resp))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterRollingReload: reload every replica through the router while
// client load flows; zero non-2xx answers, and every replica ends on a
// fresh epoch.
func TestRouterRollingReload(t *testing.T) {
	rt, _, g := startTier(t, 3, Config{LegPairs: 8, RetryBackoff: time.Millisecond, DrainTimeout: 5 * time.Second})
	rt.ProbeAll(context.Background())
	oldEpochs := make(map[string]uint64)
	for _, rep := range rt.replicas {
		oldEpochs[rep.ID], _ = rep.Epoch("g")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var non2xx atomic.Int64
	var queries atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pairs := randPairs(8, g.NumVertices(), rng.Int63())
				code, _ := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "g", "pairs": pairs})
				queries.Add(1)
				if code != http.StatusOK {
					non2xx.Add(1)
				}
			}
		}(int64(w))
	}

	code, raw := postJSON(t, rt, "/v1/datasets/g/reload", nil)
	close(stop)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("rolling reload: status %d: %s", code, raw)
	}
	if n := non2xx.Load(); n != 0 {
		t.Fatalf("%d of %d client queries failed during the rolling reload", n, queries.Load())
	}
	var report struct {
		Replicas []replicaReload `json:"replicas"`
		Failed   int             `json:"failed"`
	}
	mustUnmarshal(t, raw, &report)
	if report.Failed != 0 {
		t.Fatalf("reload report: %d replicas failed: %s", report.Failed, raw)
	}
	for _, e := range report.Replicas {
		if e.Skipped {
			t.Fatalf("replica %s skipped during reload of a healthy tier", e.Replica)
		}
		if e.NewEpoch <= oldEpochs[e.Replica] {
			t.Fatalf("replica %s: epoch %d did not advance past %d", e.Replica, e.NewEpoch, oldEpochs[e.Replica])
		}
	}
	// No replica left drained.
	for _, rep := range rt.replicas {
		if rep.draining.Load() {
			t.Fatalf("replica %s still draining after reload", rep.ID)
		}
	}
}

// TestRouterMetricsCatalog: one scrape carries every cataloged family.
func TestRouterMetricsCatalog(t *testing.T) {
	rt, _, _ := startTier(t, 2, Config{})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	body := w.Body.String()
	for _, name := range MetricCatalog() {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing from scrape", name)
		}
	}
}

// TestRouterStats: the stats document carries the per-replica table.
func TestRouterStats(t *testing.T) {
	rt, _, _ := startTier(t, 2, Config{})
	rt.ProbeAll(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var doc struct {
		Replicas []replicaStats `json:"replicas"`
	}
	mustUnmarshal(t, w.Body.Bytes(), &doc)
	if len(doc.Replicas) != 2 {
		t.Fatalf("stats lists %d replicas, want 2", len(doc.Replicas))
	}
	for _, rs := range doc.Replicas {
		if rs.InstanceID == "" || rs.Epochs["g"] == 0 || !rs.Routable {
			t.Fatalf("replica %s: incomplete stats entry: %+v", rs.Replica, rs)
		}
	}
}

// TestRouterBadRequestPassThrough: a backend 4xx (unknown dataset) is the
// client's answer — it must pass through, not be retried into a 502.
func TestRouterBadRequestPassThrough(t *testing.T) {
	rt, backends, _ := startTier(t, 2, Config{})
	code, _ := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "nope", "pairs": [][2]int{{1, 2}}})
	if code != http.StatusNotFound {
		t.Fatalf("unknown dataset through router: status %d, want 404", code)
	}
	code, _ = postJSON(t, rt, "/v1/reach", map[string]any{"graph": "nope", "s": 1, "t": 2})
	if code != http.StatusNotFound {
		t.Fatalf("unknown dataset reach through router: status %d, want 404", code)
	}
	// The router does not parse single-query bodies: malformed JSON is the
	// backend's to reject, and its 400 passes through like any other 4xx.
	req := httptest.NewRequest(http.MethodPost, "/v1/reach", strings.NewReader(`{"graph":`))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	direct, err := http.Post(backends[0].URL+"/v1/reach", "application/json", strings.NewReader(`{"graph":`))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	if w.Code != http.StatusBadRequest || w.Code != direct.StatusCode || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("malformed reach through router: %d %q, backend says %d %q", w.Code, w.Body.Bytes(), direct.StatusCode, want)
	}
	// A pair that is not exactly two ids is refused at the router, as the
	// backend would refuse it, instead of being answered as (s, 0) or (s, t).
	// So is an unknown key, which the backend's decoder rejects too.
	for _, body := range []string{
		`{"graph":"g","pairs":[[5]]}`,
		`{"graph":"g","pairs":[[1,2,3]]}`,
		`{"graph":"g","pairs":[null]}`,
		`{"graph":"g","pairs":[[1,2]],"limit":5}`,
	} {
		code, raw := postJSON(t, rt, "/v1/batch", json.RawMessage(body))
		var e routerError
		mustUnmarshal(t, raw, &e)
		if code != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Fatalf("%s through router: status %d code %q, want 400 %q", body, code, e.Code, CodeBadRequest)
		}
	}
}

// TestRouterRejectsOversizedBodies: a body past the cap is refused whole
// with a 413 bad_request on every forwarding path — never truncated and
// sent on to a replica.
func TestRouterRejectsOversizedBodies(t *testing.T) {
	rt, backends, _ := startTier(t, 1, Config{MaxBatch: 4})
	big := strings.Repeat(" ", int(rt.maxBody))
	for _, path := range []string{"/v1/reach", "/v1/datasets/g/edges", "/v1/batch"} {
		before := backends[0].queries.Load()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"graph":"g"`+big+`}`))
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		var e routerError
		mustUnmarshal(t, w.Body.Bytes(), &e)
		if w.Code != http.StatusRequestEntityTooLarge || e.Code != CodeBadRequest {
			t.Fatalf("oversized %s: status %d code %q, want 413 %q", path, w.Code, e.Code, CodeBadRequest)
		}
		if n := backends[0].queries.Load() - before; n != 0 {
			t.Fatalf("oversized %s reached a backend %d times", path, n)
		}
	}
}

// stubTransport answers every /v1/batch leg in-process with all-false
// results, reusing its buffers, so the allocations it adds do not depend
// on the leg's size.
type stubTransport struct {
	req   server.BatchRequest
	body  bytes.Buffer
	reply server.BatchReply
	out   []byte
}

func (s *stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s.body.Reset()
	s.body.Grow(int(r.ContentLength) + bytes.MinRead)
	if _, err := s.body.ReadFrom(r.Body); err != nil {
		return nil, err
	}
	r.Body.Close()
	if err := server.DecodeBatchRequest(s.body.Bytes(), &s.req); err != nil {
		return nil, err
	}
	s.reply = server.BatchReply{Graph: s.req.Graph, Epoch: 1, Count: len(s.req.Pairs), Results: slices.Grow(s.reply.Results[:0], len(s.req.Pairs))[:len(s.req.Pairs)]}
	s.out = server.AppendBatchReply(s.out[:0], &s.reply)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(s.out)),
		ContentLength: int64(len(s.out)),
		Request:       r,
	}, nil
}

// TestRouterBatchAllocsIndependentOfSize pins the router's /v1/batch
// allocation budget: a one-leg batch of 4096 pairs allocates as many
// objects as one of 64.
func TestRouterBatchAllocsIndependentOfSize(t *testing.T) {
	rt, err := New(Config{Replicas: []string{"http://stub"}})
	if err != nil {
		t.Fatal(err)
	}
	rt.replicas[0].http = &http.Client{Transport: &stubTransport{}}
	allocs := func(n int) float64 {
		body := mustJSON(t, map[string]any{"graph": "g", "pairs": randPairs(n, 1000, int64(n))})
		// The fewest objects over repeated requests: the steady state, with
		// pooled scratch warm. An average would also count the pool misses
		// the race detector injects by dropping Puts.
		least := math.Inf(1)
		for range 20 {
			least = min(least, testing.AllocsPerRun(1, func() {
				w := httptest.NewRecorder()
				rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
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

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
}
