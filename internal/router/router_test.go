package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

func startBackend(t *testing.T, g *kreach.Graph, cfg server.Config) *backend {
	t.Helper()
	reg := server.NewRegistry()
	if err := reg.Add(testDataset(t, g, "g")); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, cfg)
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

// startTier runs n backends plus a router over them, all in-process. The
// backends run with the router's MaxBatch, as a deployment would.
func startTier(t *testing.T, n int, cfg Config) (*Router, []*backend, *kreach.Graph) {
	t.Helper()
	g := testGraph(t)
	backends := make([]*backend, n)
	for i := range backends {
		backends[i] = startBackend(t, g, server.Config{MaxBatch: cfg.MaxBatch})
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
		buf = mustJSON(t, body)
	}
	return postRaw(h, path, buf)
}

func postRaw(h http.Handler, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// postDirect posts body straight to a backend, bypassing the router.
func postDirect(t *testing.T, base, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func randPairs(n, vertices int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(vertices), rng.Intn(vertices)}
	}
	return pairs
}

// TestRouterBatchMatchesBackend: the router forwards a batch whole to one
// replica and returns that replica's reply byte for byte, epoch included,
// at the cost of exactly one backend request.
func TestRouterBatchMatchesBackend(t *testing.T) {
	rt, backends, g := startTier(t, 1, Config{})
	body := mustJSON(t, map[string]any{"graph": "g", "pairs": randPairs(200, g.NumVertices(), 1)})
	_, want := postDirect(t, backends[0].URL, "/v1/batch", body)
	if code, got := postRaw(rt, "/v1/batch", body); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("router batch: status %d\n got %s\nwant %s", code, got, want)
	}

	rt, backends, g = startTier(t, 3, Config{})
	queries := func() (n int64) {
		for _, b := range backends {
			n += b.queries.Load()
		}
		return n
	}
	for i := range 6 {
		before := queries()
		code, raw := postJSON(t, rt, "/v1/batch", map[string]any{"graph": "g", "pairs": randPairs(5000, g.NumVertices(), int64(i))})
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, code, raw)
		}
		if n := queries() - before; n != 1 {
			t.Fatalf("batch %d cost %d backend requests, want 1", i, n)
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
	rt, backends, _ := startTier(t, 3, Config{})
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

}

// TestRouterFailover: SIGKILL-equivalent (closed backend) mid-tier — every
// batch still answers completely and correctly via failover, and the dead
// replica is demoted out of rotation.
func TestRouterFailover(t *testing.T) {
	rt, backends, g := startTier(t, 3, Config{})
	body := mustJSON(t, map[string]any{"graph": "g", "pairs": randPairs(120, g.NumVertices(), 2)})
	var direct server.BatchReply
	_, raw := postDirect(t, backends[0].URL, "/v1/batch", body)
	mustUnmarshal(t, raw, &direct)

	backends[1].Close() // hard kill: connections refused from here on

	// Equal loads rotate the target, so one of three batches tries the dead
	// replica first.
	for i := range 3 {
		code, raw := postRaw(rt, "/v1/batch", body)
		if code != http.StatusOK {
			t.Fatalf("batch %d with one dead replica: status %d: %s", i, code, raw)
		}
		var routed server.BatchReply
		mustUnmarshal(t, raw, &routed)
		if !slices.Equal(routed.Results, direct.Results) {
			t.Fatalf("batch %d: wrong answers after failover", i)
		}
	}
	// The request path demoted the dead replica without waiting for a probe.
	dead := rt.replicas[1]
	if dead.State() == StateHealthy {
		t.Fatalf("dead replica still %s after a failed request", dead.State())
	}
	if dead.Routable() {
		t.Fatal("dead replica still routable")
	}
}

// TestRouterAllDead: with every replica unroutable the router answers a
// typed 503, not a hang or a wrong answer.
func TestRouterAllDead(t *testing.T) {
	rt, backends, _ := startTier(t, 2, Config{})
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

// TestRouterRollingReload: reload every replica through the router while
// client load flows; zero non-2xx answers, and every replica ends on a
// fresh epoch.
func TestRouterRollingReload(t *testing.T) {
	rt, _, g := startTier(t, 3, Config{DrainTimeout: 5 * time.Second})
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

// TestRouterBadRequestPassThrough: the router parses no body, so every
// verdict on one is the backend's, and a backend 4xx is the client's
// answer — it passes through byte for byte, not retried into a 502.
func TestRouterBadRequestPassThrough(t *testing.T) {
	rt, backends, _ := startTier(t, 1, Config{MaxBatch: 4})
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"unknown dataset reach", "/v1/reach", `{"graph":"nope","s":1,"t":2}`, http.StatusNotFound},
		{"unknown dataset batch", "/v1/batch", `{"graph":"nope","pairs":[[1,2]]}`, http.StatusNotFound},
		{"malformed reach", "/v1/reach", `{"graph":`, http.StatusBadRequest},
		{"one-id pair", "/v1/batch", `{"graph":"g","pairs":[[5]]}`, http.StatusBadRequest},
		{"three-id pair", "/v1/batch", `{"graph":"g","pairs":[[1,2,3]]}`, http.StatusBadRequest},
		{"null pair", "/v1/batch", `{"graph":"g","pairs":[null]}`, http.StatusBadRequest},
		{"unknown key", "/v1/batch", `{"graph":"g","pairs":[[1,2]],"limit":5}`, http.StatusBadRequest},
		{"over maxbatch", "/v1/batch", `{"graph":"g","pairs":[[1,2],[1,2],[1,2],[1,2],[1,2]]}`, http.StatusRequestEntityTooLarge},
		// No graph: kreachd answers from its first dataset, and so does the router.
		{"missing graph", "/v1/batch", `{"pairs":[[1,2]]}`, http.StatusOK},
	} {
		code, got := postRaw(rt, tc.path, []byte(tc.body))
		wantCode, want := postDirect(t, backends[0].URL, tc.path, []byte(tc.body))
		if code != tc.status || code != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s through router: %d %q; backend says %d %q, want status %d",
				tc.name, code, got, wantCode, want, tc.status)
		}
	}
}

// truncatingReplica fronts a healthy backend and dies mid-reply: it fetches
// the backend's answer, declares its full length, sends the first half and
// closes the connection. hits counts the requests it took.
func truncatingReplica(t *testing.T, backend string) (stub *httptest.Server, hits *atomic.Int64) {
	t.Helper()
	hits = new(atomic.Int64)
	stub = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		resp, err := http.Post(backend+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		conn, out, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		fmt.Fprintf(out, "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			resp.StatusCode, http.StatusText(resp.StatusCode), len(reply))
		out.Write(reply[:len(reply)/2])
		out.Flush()
	}))
	t.Cleanup(stub.Close)
	return stub, hits
}

// TestRouterFailsOverTruncatedReply: a replica that dies mid-reply is a
// failed attempt like any other. Each read endpoint tries it first, fails
// over, and answers 200 with the healthy backend's complete reply — never
// the truncated one.
func TestRouterFailsOverTruncatedReply(t *testing.T) {
	g := testGraph(t)
	healthy := startBackend(t, g, server.Config{})
	stub, hits := truncatingReplica(t, healthy.URL)
	rt, err := New(Config{Replicas: []string{stub.URL, healthy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cut, whole := rt.replicas[0], rt.replicas[1]
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/reach", map[string]any{"graph": "g", "s": 5, "t": 9}},
		{"/v1/neighbors", map[string]any{"graph": "g", "source": 5}},
		{"/v1/batch", map[string]any{"graph": "g", "pairs": randPairs(500, g.NumVertices(), 4)}},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			cut.noteSuccess() // readmit it after the previous row
			whole.inflight.Add(1)
			defer whole.inflight.Add(-1) // until then the truncating replica is the target
			body := mustJSON(t, tc.body)
			before := hits.Load()
			code, got := postRaw(rt, tc.path, body)
			_, want := postDirect(t, healthy.URL, tc.path, body)
			if hits.Load() == before {
				t.Fatal("the truncating replica was not tried")
			}
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("status %d\n got %s\nwant %s", code, got, want)
			}
			if cut.Routable() {
				t.Fatal("a replica that died mid-reply is still routable")
			}
		})
	}
}

// TestRouterPrimaryErrorPassThrough: a primary that answers a mutation with
// its own 5xx is alive and has said what went wrong. Its reply passes
// through verbatim and it stays routable; only an unreachable primary is
// primary_down.
func TestRouterPrimaryErrorPassThrough(t *testing.T) {
	const wedged = `{"error":"graph \"g\": wal: store wedged"}` + "\n"
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, wedged)
	}))
	defer stub.Close()
	rt, err := New(Config{Replicas: []string{stub.URL}})
	if err != nil {
		t.Fatal(err)
	}
	edges := map[string]any{"add": [][2]int{{1, 2}}}
	code, raw := postJSON(t, rt, "/v1/datasets/g/edges", edges)
	if code != http.StatusServiceUnavailable || string(raw) != wedged {
		t.Fatalf("primary's own 503 through router: %d %q, want 503 %q", code, raw, wedged)
	}
	if rep := rt.replicas[0]; !rep.Routable() {
		t.Fatalf("primary demoted to %s by its own 5xx", rep.State())
	}

	stub.Close()
	code, raw = postJSON(t, rt, "/v1/datasets/g/edges", edges)
	var e routerError
	mustUnmarshal(t, raw, &e)
	if code != http.StatusBadGateway || e.Code != CodePrimaryDown {
		t.Fatalf("unreachable primary: %d %q, want 502 %q", code, e.Code, CodePrimaryDown)
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

// stubTransport answers every /v1/batch request in-process with all-false
// results, reusing its buffers, so the allocations it adds do not depend
// on the batch's size.
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
// allocation budget: a batch of 4096 pairs allocates as many objects as
// one of 64.
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
