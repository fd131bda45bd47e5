package server_test

// Replication soak (ISSUE 10 satellite 1): a durable primary is driven by a
// randomized mutation stream over real HTTP while two followers — one
// durable, one in-memory — replicate from its WAL feed. Compactions land
// mid-run, the durable follower is stopped and restarted from its own
// journal mid-stream, and at the end both followers must stand at the
// primary's exact epoch and answer every sampled pair like a BFS oracle
// over the stream's ground-truth edge set. Run under -race: the follower
// loop, the HTTP handlers, and the registry swaps all overlap here.

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kreach"
	"kreach/internal/gen"
	"kreach/internal/graph"
	"kreach/internal/server"
	"kreach/internal/workload"
)

// replOptions pins the index shape every replication test shares; K must
// match on both sides or answers legitimately differ.
var replOptions = kreach.DynamicOptions{K: 3, Seed: 11, CompactRatio: 1e9}

// replGraph is the shared base: one structural family scaled far down so
// the full-pair oracle stays cheap.
func replGraph(t *testing.T) (*graph.Graph, *kreach.Graph) {
	t.Helper()
	spec, ok := gen.Dataset("CiteSeer")
	if !ok {
		t.Fatal("unknown dataset CiteSeer")
	}
	spec = spec.Scaled(60)
	ig := spec.Generate()
	return ig, kreach.WrapInternal(ig)
}

// newReplPrimary opens a durable mutable dataset over base and serves it —
// mutations, stats, and the WAL feed — from one httptest server.
func newReplPrimary(t *testing.T, base *kreach.Graph, dir string, retain int) *httptest.Server {
	t.Helper()
	dyn, rg, w, err := kreach.OpenDurableDynamicIndex(base, replOptions, kreach.DurableOptions{
		Dir: dir, Sync: kreach.SyncAlways, RetainEpochs: retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	reg := server.NewRegistry()
	if err := reg.Add(&server.Dataset{Name: "dyn", Graph: rg, Reacher: dyn, WAL: w}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{}))
	t.Cleanup(ts.Close)
	return ts
}

// replFollower is one follower under test: the Follower itself, its own
// registry and HTTP server (so queries travel the same path clients use),
// and the replication loop's lifecycle handles.
type replFollower struct {
	f       *server.Follower
	reg     *server.Registry
	ts      *httptest.Server
	cancel  context.CancelFunc
	done    chan struct{}
	stopped bool
}

// newReplFollower bootstraps a follower (durable when walDir is set) and
// serves its dataset, but does not start the replication loop.
func newReplFollower(t *testing.T, primaryURL string, base *kreach.Graph, walDir string) *replFollower {
	t.Helper()
	reg := server.NewRegistry()
	f, err := server.NewFollower(server.FollowerConfig{
		Primary:      primaryURL,
		Dataset:      "dyn",
		Registry:     reg,
		Options:      replOptions,
		WALDir:       walDir,
		Sync:         kreach.SyncAlways,
		PollWait:     250 * time.Millisecond,
		RetryBackoff: 25 * time.Millisecond,
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
	fl := &replFollower{f: f, reg: reg, ts: httptest.NewServer(server.New(reg, server.Config{}))}
	t.Cleanup(func() { fl.stop() })
	return fl
}

// run launches the replication loop.
func (fl *replFollower) run() {
	ctx, cancel := context.WithCancel(context.Background())
	fl.cancel = cancel
	fl.done = make(chan struct{})
	go func() {
		defer close(fl.done)
		fl.f.Run(ctx)
	}()
}

// stop tears the follower down completely: loop ended and drained, server
// closed, local journal closed — after it returns, nothing touches walDir.
func (fl *replFollower) stop() {
	if fl.stopped {
		return
	}
	fl.stopped = true
	if fl.cancel != nil {
		fl.cancel()
		<-fl.done
	}
	fl.ts.Close()
	if w := fl.f.WAL(); w != nil {
		w.Close()
	}
}

// waitReplicated blocks until the follower's durable cursor stands at
// exactly epoch and it reports caught up. A cursor beyond epoch is an
// instant failure: a follower must never invent epochs the primary did not
// issue.
func waitReplicated(t *testing.T, f *server.Follower, epoch uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := f.Status()
		if st.LastAppliedEpoch > epoch {
			t.Fatalf("follower cursor %d beyond primary epoch %d: %+v", st.LastAppliedEpoch, epoch, st)
		}
		if st.LastAppliedEpoch == epoch && st.CaughtUp {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d, want %d: %+v", st.LastAppliedEpoch, epoch, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicationSoak(t *testing.T) {
	ig, base := replGraph(t)
	primary := newReplPrimary(t, base, t.TempDir(), 8)

	durDir := t.TempDir()
	durable := newReplFollower(t, primary.URL, base, durDir)
	durable.run()
	memory := newReplFollower(t, primary.URL, base, "")
	memory.run()

	// Mutation phase: single-op batches from the stream (its edge set is the
	// ground truth), a compaction roughly every third of the run, and a full
	// stop/restart of the durable follower at the halfway point.
	ms := workload.NewMutationStream(ig, 0x50AC, workload.MutationMix{Add: 0.55, Remove: 0.45})
	const ops = 120
	var lastEpoch uint64
	applied := 0
	for applied < ops {
		op := ms.Next()
		body := map[string]any{}
		switch op.Kind {
		case workload.OpAdd:
			body["add"] = [][2]int{{int(op.U), int(op.V)}}
		case workload.OpRemove:
			body["remove"] = [][2]int{{int(op.U), int(op.V)}}
		default:
			continue
		}
		status, resp := post(t, primary.URL+"/v1/datasets/dyn/edges", body)
		if status != http.StatusOK {
			t.Fatalf("edges status %d: %v", status, resp)
		}
		lastEpoch = field[uint64](t, resp, "epoch")
		applied++

		if applied%40 == 0 {
			status, resp := post(t, primary.URL+"/v1/datasets/dyn/compact", nil)
			if status != http.StatusOK {
				t.Fatalf("compact status %d: %v", status, resp)
			}
			lastEpoch = field[uint64](t, resp, "epoch")
		}
		if applied == ops/2 {
			// Kill the durable follower mid-stream and rebuild it over the
			// same journal: the restart must resume from its own durable
			// cursor, not from zero. The cursor is read after the stop: until
			// then the apply loop is still journaling epochs.
			durable.stop()
			atStop := durable.f.Status().LastAppliedEpoch
			durable = newReplFollower(t, primary.URL, base, durDir)
			resumed := durable.f.Status().LastAppliedEpoch
			if resumed == 0 || resumed > atStop {
				t.Fatalf("restarted follower resumed at epoch %d, stopped at %d", resumed, atStop)
			}
			durable.run()
		}
	}

	waitReplicated(t, durable.f, lastEpoch, 30*time.Second)
	waitReplicated(t, memory.f, lastEpoch, 30*time.Second)

	// Answer exactness: sampled pairs against a BFS oracle over the stream's
	// final edge set, asked over HTTP on the primary and both followers.
	final := graph.FromEdges(ig.NumVertices(), ms.Edges())
	sc := graph.NewBFSScratch(final.NumVertices())
	rng := rand.New(rand.NewPCG(0x50AC, 2))
	n := final.NumVertices()
	servers := map[string]string{
		"primary":          primary.URL,
		"durable-follower": durable.ts.URL,
		"memory-follower":  memory.ts.URL,
	}
	for i := 0; i < 300; i++ {
		s, d := rng.IntN(n), rng.IntN(n)
		want := graph.KHopReach(final, graph.Vertex(s), graph.Vertex(d), replOptions.K, sc)
		for label, url := range servers {
			if got := reachable(t, url, s, d); got != want {
				t.Fatalf("%s: reach(%d,%d) = %v, oracle %v (epoch %d)", label, s, d, got, want, lastEpoch)
			}
		}
	}

	// The soak's accounting must show real replication happened: records on
	// both followers, and at least one shipped snapshot on the cold-started
	// in-memory one.
	if st := durable.f.Status(); st.RecordsApplied == 0 {
		t.Errorf("durable follower applied no records: %+v", st)
	}
	if st := memory.f.Status(); st.RecordsApplied == 0 || st.SnapshotsLoaded == 0 {
		t.Errorf("memory follower missed records or snapshot: %+v", st)
	}
}

// TestFollowerRejectsLocalWrites: a follower dataset answers queries but
// 409s mutations and compactions — local writes would fork the epoch
// history the feed keeps exact.
func TestFollowerRejectsLocalWrites(t *testing.T) {
	_, base := replGraph(t)
	primary := newReplPrimary(t, base, t.TempDir(), 4)
	fl := newReplFollower(t, primary.URL, base, "")

	if status, _ := post(t, fl.ts.URL+"/v1/reach", map[string]any{"s": 0, "t": 1}); status != http.StatusOK {
		t.Fatalf("follower reach status %d, want 200", status)
	}
	status, body := post(t, fl.ts.URL+"/v1/datasets/dyn/edges", map[string]any{
		"add": [][2]int{{0, 1}},
	})
	if status != http.StatusConflict {
		t.Fatalf("follower edges status %d: %v, want 409", status, body)
	}
	status, body = post(t, fl.ts.URL+"/v1/datasets/dyn/compact", nil)
	if status != http.StatusConflict {
		t.Fatalf("follower compact status %d: %v, want 409", status, body)
	}
}

// TestFollowerStatsSection: the follower's /v1/stats dataset entry carries
// the replication block the router's lag demotion reads.
func TestFollowerStatsSection(t *testing.T) {
	_, base := replGraph(t)
	primary := newReplPrimary(t, base, t.TempDir(), 4)

	status, resp := post(t, primary.URL+"/v1/datasets/dyn/edges", map[string]any{
		"add": [][2]int{{0, 1}},
	})
	if status != http.StatusOK {
		t.Fatalf("edges status %d: %v", status, resp)
	}
	epoch := field[uint64](t, resp, "epoch")

	fl := newReplFollower(t, primary.URL, base, "")
	fl.run()
	waitReplicated(t, fl.f, epoch, 10*time.Second)

	httpResp, err := http.Get(fl.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var stats struct {
		Datasets []struct {
			Name     string `json:"name"`
			ReadOnly bool   `json:"read_only"`
			Follower *struct {
				Primary          string  `json:"primary"`
				LastAppliedEpoch uint64  `json:"last_applied_epoch"`
				LagEpochs        uint64  `json:"lag_epochs"`
				LagSeconds       float64 `json:"lag_seconds"`
				CaughtUp         bool    `json:"caught_up"`
				RecordsApplied   uint64  `json:"records_applied"`
			} `json:"follower"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Datasets) != 1 || stats.Datasets[0].Follower == nil {
		t.Fatalf("no follower section in stats: %+v", stats.Datasets)
	}
	ds := stats.Datasets[0]
	if !ds.ReadOnly {
		t.Error("follower dataset not marked read_only in stats")
	}
	fs := ds.Follower
	if fs.Primary != primary.URL || fs.LastAppliedEpoch != epoch || !fs.CaughtUp || fs.LagEpochs != 0 {
		t.Errorf("follower stats block: %+v, want primary %s at epoch %d caught up", fs, primary.URL, epoch)
	}
}
