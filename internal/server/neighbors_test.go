package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"kreach"
	"kreach/internal/graph"
	"kreach/internal/server"
)

func randomServedGraph(n, m int, seed uint64) *kreach.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	b := kreach.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func neighborsServer(t *testing.T, k int) (*server.Server, *kreach.Graph) {
	t.Helper()
	g := randomServedGraph(80, 300, 4)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "g", Graph: g, Reacher: ix}); err != nil {
		t.Fatal(err)
	}
	return server.New(reg, server.Config{}), g
}

func postNeighbors(t *testing.T, srv http.Handler, body map[string]any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(body)
	req := httptest.NewRequest("POST", "/v1/neighbors", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var resp map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

// TestNeighborsPaginationReassembles pages through a ball at several page
// sizes and checks every paging reassembles the identical full set.
func TestNeighborsPaginationReassembles(t *testing.T) {
	const k = 3
	srv, g := neighborsServer(t, k)

	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.ReachFrom(context.Background(), 2, k, kreach.EnumOptions{SortByDistance: true})
	if err != nil {
		t.Fatal(err)
	}
	wantBuckets := make(map[int]string, want.Total)
	for _, nb := range want.Neighbors {
		wantBuckets[nb.ID] = nb.Bucket.String()
	}
	if len(wantBuckets) < 5 {
		t.Fatalf("ball too small (%d) for a pagination test", len(wantBuckets))
	}

	for _, pageSize := range []int{1, 3, 7, 1000} {
		got := make(map[int]string)
		var cursor *float64
		prevID := -1
		pages := 0
		for {
			body := map[string]any{"graph": "g", "source": 2, "k": k, "limit": pageSize}
			if cursor != nil {
				body["cursor"] = *cursor
			}
			rec, resp := postNeighbors(t, srv, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("page %d: status %d: %s", pages, rec.Code, rec.Body.String())
			}
			if int(resp["total"].(float64)) != want.Total {
				t.Fatalf("total %v, want %d", resp["total"], want.Total)
			}
			for _, e := range resp["neighbors"].([]any) {
				m := e.(map[string]any)
				id := int(m["id"].(float64))
				if id <= prevID {
					t.Fatalf("page %d: id %d not ascending past %d", pages, id, prevID)
				}
				prevID = id
				if _, dup := got[id]; dup {
					t.Fatalf("duplicate id %d across pages", id)
				}
				got[id] = m["bucket"].(string)
			}
			nc, more := resp["next_cursor"]
			pages++
			if !more {
				break
			}
			f := nc.(float64)
			cursor = &f
			if pages > want.Total+2 {
				t.Fatal("pagination does not terminate")
			}
		}
		if pageSize < want.Total && pages < 2 {
			t.Fatalf("page size %d produced %d pages", pageSize, pages)
		}
		if len(got) != len(wantBuckets) {
			t.Fatalf("page size %d reassembled %d members, want %d", pageSize, len(got), len(wantBuckets))
		}
		for id, bucket := range wantBuckets {
			if got[id] != bucket {
				t.Fatalf("page size %d: member %d bucket %q, want %q", pageSize, id, got[id], bucket)
			}
		}
	}
}

func TestNeighborsDirectionIn(t *testing.T) {
	const k = 2
	srv, g := neighborsServer(t, k)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.ReachInto(context.Background(), 5, k, kreach.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, resp := postNeighbors(t, srv, map[string]any{"graph": "g", "source": 5, "direction": "in"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp["direction"] != "in" || int(resp["total"].(float64)) != want.Total {
		t.Fatalf("response %v, want total %d", resp, want.Total)
	}
}

// nonEnumerating wraps a real Reacher but hides its enumeration methods, so
// the capability probe fails: the serving layer must answer 501.
type nonEnumerating struct{ kreach.Reacher }

func TestNeighborsCapability501(t *testing.T) {
	g := randomServedGraph(20, 60, 9)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "plain", Graph: g, Reacher: nonEnumerating{ix}}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{})
	rec, _ := postNeighbors(t, srv, map[string]any{"graph": "plain", "source": 0})
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501: %s", rec.Code, rec.Body.String())
	}
}

func TestNeighborsValidation(t *testing.T) {
	srv, _ := neighborsServer(t, 3)
	cases := []struct {
		name string
		body map[string]any
		code int
	}{
		{"unknown graph", map[string]any{"graph": "nope", "source": 0}, http.StatusNotFound},
		{"source out of range", map[string]any{"graph": "g", "source": 10_000}, http.StatusBadRequest},
		{"negative source", map[string]any{"graph": "g", "source": -1}, http.StatusBadRequest},
		{"k mismatch", map[string]any{"graph": "g", "source": 0, "k": 9}, http.StatusBadRequest},
		{"bad direction", map[string]any{"graph": "g", "source": 0, "direction": "sideways"}, http.StatusBadRequest},
		{"native k ok", map[string]any{"graph": "g", "source": 0}, http.StatusOK},
		{"matching k ok", map[string]any{"graph": "g", "source": 0, "k": 3}, http.StatusOK},
	}
	for _, tc := range cases {
		rec, _ := postNeighbors(t, srv, tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body.String())
		}
	}
}

// TestNeighborsDefaultLimitClampedToMaxBatch pins the operator cap: a
// request that omits "limit" must still respect Config.MaxBatch, exactly
// like an explicit oversized limit does.
func TestNeighborsDefaultLimitClampedToMaxBatch(t *testing.T) {
	g := randomServedGraph(80, 300, 4)
	ix, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "g", Graph: g, Reacher: ix}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{MaxBatch: 3})
	for _, body := range []map[string]any{
		{"graph": "g", "source": 2},                  // omitted limit
		{"graph": "g", "source": 2, "limit": 100000}, // oversized limit
	} {
		rec, resp := postNeighbors(t, srv, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if count := int(resp["count"].(float64)); count > 3 {
			t.Fatalf("page of %d members exceeds MaxBatch 3 (body %v)", count, body)
		}
		if _, more := resp["next_cursor"]; !more && int(resp["total"].(float64)) > 3 {
			t.Fatalf("truncated page missing next_cursor: %v", resp)
		}
	}
}

// TestNeighborsDynamicEpochAdvances mutates a dynamic dataset between two
// pages and checks the advertised epoch changes — the signal clients use
// to detect a ball shifting under pagination.
func TestNeighborsDynamicEpochAdvances(t *testing.T) {
	g := randomServedGraph(30, 80, 6)
	dyn, err := kreach.NewDynamicIndex(g, kreach.DynamicOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "dyn", Graph: g, Reacher: dyn}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{})
	rec, resp := postNeighbors(t, srv, map[string]any{"graph": "dyn", "source": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	e1 := resp["epoch"].(float64)
	if _, err := dyn.Mutate([][2]int{{1, 29}}, nil); err != nil {
		t.Fatal(err)
	}
	rec, resp = postNeighbors(t, srv, map[string]any{"graph": "dyn", "source": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if e2 := resp["epoch"].(float64); e2 == e1 {
		t.Fatalf("epoch did not advance across a mutation (still %v)", e1)
	}
	found := false
	for _, e := range resp["neighbors"].([]any) {
		if int(e.(map[string]any)["id"].(float64)) == 29 {
			found = true
		}
	}
	if !found {
		t.Fatal("mutated edge's target missing from the live ball")
	}
}

// TestNeighborsEpochNamesTheBall reads balls of a dynamic dataset while a
// writer flips one edge per batch, and checks every reply against the
// graph.BFSDistances oracle on the edge set at the epoch the reply names:
// the epoch must be the one the ball was enumerated at, not one read
// before or after it. The flipped edge (u, v) joins two vertices more than
// k hops apart, so every flip moves v in or out of u's out-ball and u in or
// out of v's in-ball, and a reply labelled one epoch off is a wrong ball.
func TestNeighborsEpochNamesTheBall(t *testing.T) {
	const n, k, batches = 200, 3, 1000
	g := randomServedGraph(n, 600, 9)
	u, v := 0, -1
	for w, d := range graph.BFSDistances(g.Internal(), graph.Vertex(u), graph.Forward) {
		if w != u && (d == graph.InfDist || d > k) {
			v = w
			break
		}
	}
	if v < 0 {
		t.Fatal("every vertex is within k hops of the source")
	}
	states := [2]*graph.Graph{g.Internal(), graph.Rebuild(g.Internal(), []graph.Edge{{Src: graph.Vertex(u), Dst: graph.Vertex(v)}}, nil)}
	dyn, err := kreach.NewDynamicIndex(g, kreach.DynamicOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "dyn", Graph: g, Reacher: dyn}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{})

	// present maps every epoch the writer issued to whether (u, v) is an
	// edge at it; written by the writer only, read after it is done. The
	// writer paces itself to about one batch per reply, so reads and
	// batches keep overlapping.
	present := map[uint64]bool{dyn.Epoch(): false}
	var read atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		flip := [][2]int{{u, v}}
		for i := range batches {
			for read.Load() < int64(i) {
				runtime.Gosched()
			}
			add, remove := flip, [][2]int(nil)
			if i%2 == 1 {
				add, remove = nil, flip
			}
			res, err := dyn.Mutate(add, remove)
			if err != nil || res.Added+res.Removed != 1 {
				t.Errorf("batch %d: %+v, %v", i, res, err)
				return
			}
			present[res.Epoch] = i%2 == 0
		}
	}()

	type reply struct {
		src   int
		dir   graph.Direction
		epoch uint64
		ball  map[int]string
	}
	var replies []reply
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		r := reply{src: u, dir: graph.Forward, ball: map[int]string{}}
		body := map[string]any{"graph": "dyn", "source": u, "limit": n}
		if len(replies)%2 == 1 {
			r.src, r.dir = v, graph.Backward
			body["source"], body["direction"] = v, "in"
		}
		rec, resp := postNeighbors(t, srv, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		r.epoch = uint64(resp["epoch"].(float64))
		for _, e := range resp["neighbors"].([]any) {
			m := e.(map[string]any)
			r.ball[int(m["id"].(float64))] = m["bucket"].(string)
		}
		replies = append(replies, r)
		read.Add(1)
	}

	epochs := map[uint64]bool{}
	for i, r := range replies {
		edge, ok := present[r.epoch]
		if !ok {
			t.Fatalf("reply %d names epoch %d, which no batch issued", i, r.epoch)
		}
		epochs[r.epoch] = true
		state := states[0]
		if edge {
			state = states[1]
		}
		want := map[int]string{}
		for w, d := range graph.BFSDistances(state, graph.Vertex(r.src), r.dir) {
			switch {
			case d <= 0 || d > k:
			case d == k:
				want[w] = "frontier"
			default:
				want[w] = "within"
			}
		}
		if len(r.ball) != len(want) {
			t.Fatalf("reply %d (src %d dir %d, epoch %d, edge %v): %d members, oracle %d", i, r.src, r.dir, r.epoch, edge, len(r.ball), len(want))
		}
		for w, b := range want {
			if r.ball[w] != b {
				t.Fatalf("reply %d (src %d dir %d, epoch %d, edge %v): vertex %d is %q, oracle %q", i, r.src, r.dir, r.epoch, edge, w, r.ball[w], b)
			}
		}
	}
	t.Logf("%d replies over %d distinct epochs", len(replies), len(epochs))
	if len(epochs) < 2 {
		t.Fatalf("replies named %d epoch(s): the reads never overlapped the writer", len(epochs))
	}
}
