package server_test

// Wire-protocol fault injection (ISSUE 10 satellite 2): a corrupting proxy
// sits between a follower and its primary and mangles the feed —
// truncations at arbitrary bytes (torn mid-record), single-bit flips
// (frame corruption), and connections killed mid-snapshot-ship (primary
// death). The invariants under attack: a follower never serves torn state
// (its cursor is always an epoch the primary actually issued, and its
// answers match a BFS oracle for exactly that epoch's edge set), and once
// the fault clears it resumes from its last durable epoch and converges to
// the primary's exact epoch.

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kreach"
	"kreach/internal/graph"
	"kreach/internal/server"
	"kreach/internal/wal"
	"kreach/internal/workload"
)

// Proxy corruption modes.
const (
	proxyPass     = "pass"     // relay untouched
	proxyTruncate = "truncate" // well-formed response holding only body[:at]
	proxyFlip     = "flip"     // flip one bit of body[at]
	proxyAbort    = "abort"    // ship body[:at], then kill the connection
)

// corruptingProxy relays feed requests to the real primary and mangles the
// response body per the current mode. Truncate completes the HTTP framing —
// the nastiest case, indistinguishable from a short chunk at the transport
// level — while abort models a primary dying mid-ship.
type corruptingProxy struct {
	primary string
	mu      sync.Mutex
	mode    string
	at      int
}

func (p *corruptingProxy) set(mode string, at int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode, p.at = mode, at
}

func (p *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get(p.primary + r.URL.RequestURI())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	p.mu.Lock()
	mode, at := p.mode, p.at
	p.mu.Unlock()
	if at > len(body) {
		at = len(body)
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	switch mode {
	case proxyTruncate:
		w.Write(body[:at])
	case proxyFlip:
		mangled := append([]byte(nil), body...)
		if at < len(mangled) {
			mangled[at] ^= 1 << uint(at%8)
		}
		w.Write(mangled)
	case proxyAbort:
		w.Write(body[:at])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	default:
		w.Write(body)
	}
}

// faultPrimary is a durable primary with a recorded per-epoch edge-set
// history — the ground truth the "never serves torn state" checks need.
type faultPrimary struct {
	ts        *httptest.Server
	lastEpoch uint64
	edgesAt   map[uint64][]graph.Edge // every issued epoch → its exact edge set
}

func newFaultPrimary(t *testing.T) (*faultPrimary, *kreach.Graph) {
	t.Helper()
	ig, base := replGraph(t)
	dyn, rg, w, err := kreach.OpenDurableDynamicIndex(base, replOptions, kreach.DurableOptions{
		Dir: t.TempDir(), Sync: kreach.SyncAlways, RetainEpochs: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "dyn", Graph: rg, Reacher: dyn, WAL: w}); err != nil {
		t.Fatal(err)
	}
	fp := &faultPrimary{
		ts:      httptest.NewServer(server.New(reg, server.Config{})),
		edgesAt: map[uint64][]graph.Edge{0: ig.Edges()},
	}
	t.Cleanup(fp.ts.Close)

	ms := workload.NewMutationStream(ig, 0xFA17, workload.MutationMix{Add: 0.6, Remove: 0.4})
	applied := 0
	for applied < 10 {
		op := ms.Next()
		var res kreach.MutationResult
		switch op.Kind {
		case workload.OpAdd:
			res, err = dyn.Mutate([][2]int{{int(op.U), int(op.V)}}, nil)
		case workload.OpRemove:
			res, err = dyn.Mutate(nil, [][2]int{{int(op.U), int(op.V)}})
		default:
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Applied() {
			t.Fatalf("stream op did not apply: %+v", res)
		}
		fp.edgesAt[res.Epoch] = ms.Edges()
		fp.lastEpoch = res.Epoch
		applied++
	}
	return fp, base
}

// faultFollower is a lean in-memory follower driven by explicit SyncOnce
// calls; queries go through its registry so snapshot adoptions are visible.
type faultFollower struct {
	f   *server.Follower
	reg *server.Registry
}

func newFaultFollower(t *testing.T, primaryURL string, base *kreach.Graph) *faultFollower {
	t.Helper()
	reg := server.NewRegistry()
	f, err := server.NewFollower(server.FollowerConfig{
		Primary:  primaryURL,
		Dataset:  "dyn",
		Registry: reg,
		Options:  replOptions,
		PollWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Bootstrap(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(ds); err != nil {
		t.Fatal(err)
	}
	return &faultFollower{f: f, reg: reg}
}

func (ff *faultFollower) reach(t *testing.T, s, d int) bool {
	t.Helper()
	ds, err := ff.reg.Lookup("dyn")
	if err != nil {
		t.Fatal(err)
	}
	verdict, _, err := ds.Reacher.ReachK(context.Background(), s, d, replOptions.K)
	if err != nil {
		t.Fatalf("follower ReachK(%d,%d): %v", s, d, err)
	}
	return verdict != kreach.No
}

// checkStateAtCursor asserts the follower's cursor is an epoch the primary
// actually issued and that sampled answers match a BFS oracle for exactly
// that epoch's edge set — the "never serves torn state" invariant.
func checkStateAtCursor(t *testing.T, fp *faultPrimary, ff *faultFollower, base *kreach.Graph, seed uint64, trial string) {
	t.Helper()
	cur := ff.f.Status().LastAppliedEpoch
	edges, ok := fp.edgesAt[cur]
	if !ok {
		t.Fatalf("%s: follower cursor %d is not an epoch the primary issued", trial, cur)
	}
	n := base.NumVertices()
	g := graph.FromEdges(n, edges)
	sc := new(graph.BFS)
	rng := rand.New(rand.NewPCG(seed, 0xFA17))
	for i := 0; i < 15; i++ {
		s, d := rng.IntN(n), rng.IntN(n)
		want := graph.KHopReach(g, graph.Vertex(s), graph.Vertex(d), replOptions.K, sc)
		if got := ff.reach(t, s, d); got != want {
			t.Fatalf("%s: at cursor %d, reach(%d,%d) = %v, oracle %v", trial, cur, s, d, got, want)
		}
	}
}

// healAndConverge clears the proxy fault and syncs until the follower
// stands at the primary's exact epoch — resumption from the last durable
// cursor, no skips, no overshoot.
func healAndConverge(t *testing.T, p *corruptingProxy, fp *faultPrimary, ff *faultFollower, trial string) {
	t.Helper()
	p.set(proxyPass, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for {
		if _, err := ff.f.SyncOnce(ctx); err != nil {
			t.Fatalf("%s: healed sync failed: %v", trial, err)
		}
		cur := ff.f.Status().LastAppliedEpoch
		if cur == fp.lastEpoch {
			return
		}
		if cur > fp.lastEpoch {
			t.Fatalf("%s: follower overshot to epoch %d, primary at %d", trial, cur, fp.lastEpoch)
		}
	}
}

// feedBoundaries decodes the clean feed stream and returns the byte offsets
// that are frame boundaries (clean-prefix cut points), plus the full length
// and the extent of the snapshot frame.
func feedBoundaries(t *testing.T, primaryURL string) (boundaries map[int]bool, total, snapStart, snapEnd int) {
	t.Helper()
	resp, err := http.Get(primaryURL + "/v1/datasets/dyn/wal?from_epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	boundaries = map[int]bool{4: true}
	off := 4
	fr := wal.NewFeedReader(bytes.NewReader(body))
	for {
		frame, err := fr.Next()
		if err != nil {
			break
		}
		if frame.Kind == wal.FrameSnapshot {
			snapStart, snapEnd = off, off+9+len(frame.Payload)
		}
		off += 9 + len(frame.Payload)
		boundaries[off] = true
	}
	if off != len(body) {
		t.Fatalf("clean feed did not decode fully: %d of %d bytes", off, len(body))
	}
	if snapEnd == 0 {
		t.Fatal("cold feed carried no snapshot frame")
	}
	return boundaries, len(body), snapStart, snapEnd
}

// TestFollowerTornStreamNeverSkewsState cuts the cold-start feed at every
// frame boundary (±1 byte) and at random interior bytes. Mid-frame cuts
// must error; boundary cuts are clean prefixes — and thanks to the
// trailing commit heartbeat, a prefix missing the commit must NOT adopt
// the leading heartbeat's served-through promise. Either way the follower
// state matches the oracle at its cursor, and healing converges exactly.
func TestFollowerTornStreamNeverSkewsState(t *testing.T) {
	fp, base := newFaultPrimary(t)
	proxy := &corruptingProxy{primary: fp.ts.URL, mode: proxyPass}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	boundaries, total, _, _ := feedBoundaries(t, fp.ts.URL)
	var cuts []int
	for b := range boundaries {
		for _, d := range []int{-1, 0, 1} {
			if c := b + d; c >= 0 && c < total {
				cuts = append(cuts, c)
			}
		}
	}
	rng := rand.New(rand.NewPCG(0x7042, 1))
	for i := 0; i < 60; i++ {
		cuts = append(cuts, rng.IntN(total))
	}

	ctx := context.Background()
	for i, cut := range cuts {
		proxy.set(proxyTruncate, cut)
		ff := newFaultFollower(t, proxyTS.URL, base)
		_, err := ff.f.SyncOnce(ctx)
		if boundaries[cut] || cut == 4 {
			// Clean prefix: no error, but also no epoch adoption unless the
			// trailing commit heartbeat made it through (cut == total never
			// happens here, so it must not have).
			if err != nil {
				t.Fatalf("cut@%d (boundary): unexpected error %v", cut, err)
			}
		} else if err == nil && cut < total {
			// A mid-frame cut must surface; the sole exception is a cut
			// inside nothing (cut 0..3 tears the magic, still an error).
			t.Fatalf("cut@%d (mid-frame): sync reported success", cut)
		}
		checkStateAtCursor(t, fp, ff, base, uint64(i), "torn")
		healAndConverge(t, proxy, fp, ff, "torn")
		checkStateAtCursor(t, fp, ff, base, uint64(i)+1000, "torn+healed")
	}
}

// TestFollowerBitFlippedFramesRejected flips one bit at frame-boundary
// neighborhoods and random interior bytes: every flip must fail the sync
// (the frame CRC covers kind and payload; the magic check covers the
// header), leave the follower on a real primary epoch, and heal cleanly.
func TestFollowerBitFlippedFramesRejected(t *testing.T) {
	fp, base := newFaultPrimary(t)
	proxy := &corruptingProxy{primary: fp.ts.URL, mode: proxyPass}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	boundaries, total, _, _ := feedBoundaries(t, fp.ts.URL)
	var flips []int
	for b := range boundaries {
		for _, d := range []int{-1, 0, 1, 5} {
			if p := b + d; p >= 0 && p < total {
				flips = append(flips, p)
			}
		}
	}
	rng := rand.New(rand.NewPCG(0xF11B, 1))
	for i := 0; i < 60; i++ {
		flips = append(flips, rng.IntN(total))
	}

	ctx := context.Background()
	for i, pos := range flips {
		proxy.set(proxyFlip, pos)
		ff := newFaultFollower(t, proxyTS.URL, base)
		if _, err := ff.f.SyncOnce(ctx); err == nil {
			t.Fatalf("flip@%d: sync accepted a corrupted stream", pos)
		}
		checkStateAtCursor(t, fp, ff, base, uint64(i), "flip")
		healAndConverge(t, proxy, fp, ff, "flip")
		checkStateAtCursor(t, fp, ff, base, uint64(i)+1000, "flip+healed")
	}
}

// TestFollowerPrimaryDiesMidSnapshotShip kills the connection while the
// cold-start snapshot is in flight: the follower must keep serving its
// bootstrap state (no partial adoption — the snapshot frame never decoded),
// then adopt the full snapshot and converge once the primary is back.
func TestFollowerPrimaryDiesMidSnapshotShip(t *testing.T) {
	fp, base := newFaultPrimary(t)
	proxy := &corruptingProxy{primary: fp.ts.URL, mode: proxyPass}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	_, _, snapStart, snapEnd := feedBoundaries(t, fp.ts.URL)
	ctx := context.Background()
	for _, at := range []int{snapStart + 9, (snapStart + snapEnd) / 2, snapEnd - 1} {
		proxy.set(proxyAbort, at)
		ff := newFaultFollower(t, proxyTS.URL, base)
		if _, err := ff.f.SyncOnce(ctx); err == nil {
			t.Fatalf("abort@%d: sync survived a connection killed mid-snapshot", at)
		}
		st := ff.f.Status()
		if st.SnapshotsLoaded != 0 || st.LastAppliedEpoch != 0 {
			t.Fatalf("abort@%d: partial snapshot adoption: %+v", at, st)
		}
		checkStateAtCursor(t, fp, ff, base, uint64(at), "mid-snapshot")
		healAndConverge(t, proxy, fp, ff, "mid-snapshot")
		if st := ff.f.Status(); st.SnapshotsLoaded != 1 {
			t.Fatalf("healed follower adopted %d snapshots, want 1: %+v", st.SnapshotsLoaded, st)
		}
		checkStateAtCursor(t, fp, ff, base, uint64(at)+1000, "mid-snapshot+healed")
	}
}
