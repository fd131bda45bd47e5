package wal_test

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"kreach/internal/core"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/wal"
	"kreach/internal/workload"
)

// The kill-and-recover soak: drive a durable index with a randomized
// mutation stream, crash it at arbitrary log bytes — truncations for
// kill-mid-append, bit flips for sector rot — and require recovery to be
// exact: the recovered index answers every pair like a BFS oracle over
// precisely the batch prefix the surviving log encodes, under precisely
// that prefix's epoch.

// soakState is the ground truth after one durable batch: the epoch it was
// acknowledged under, the log offset its record ends at, and the full edge
// set — enough to reconstruct an independent oracle for any crash point.
type soakState struct {
	epoch  uint64
	offset int64
	edges  []graph.Edge
}

// runBatches drives n applied mutation batches (1–3 ops each) from ms into
// ix, appending one soakState per batch.
func runBatches(t *testing.T, ix *dynamic.Index, st *wal.Store, ms *workload.MutationStream, rng *rand.Rand, n int, states []soakState) []soakState {
	t.Helper()
	for b := 0; b < n; b++ {
		var add, remove []graph.Edge
		for len(add)+len(remove) < 1+rng.IntN(3) {
			switch op := ms.Next(); op.Kind {
			case workload.OpAdd:
				add = append(add, graph.Edge{Src: op.U, Dst: op.V})
			case workload.OpRemove:
				remove = append(remove, graph.Edge{Src: op.U, Dst: op.V})
			}
		}
		res, err := ix.Mutate(add, remove)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Applied() {
			t.Fatalf("stream batch did not apply: %+v", res)
		}
		states = append(states, soakState{
			epoch:  res.Epoch,
			offset: st.Stats().LogBytes,
			edges:  ms.Edges(),
		})
	}
	return states
}

// verifyCrashPoint damages a copy of the durability directory (truncating
// the log to cut bytes, or flipping the byte at cut), recovers from it, and
// asserts exactness against the prefix of states the damaged log encodes.
// checkpointed is the prefix index the snapshot (if any) holds, -1 for
// none; states[0] is the pre-mutation base state.
func verifyCrashPoint(t *testing.T, srcDir string, base *graph.Graph, states []soakState, cut int64, flip bool, checkpointed int, trial string) {
	t.Helper()
	dir := t.TempDir()
	logData, err := os.ReadFile(filepath.Join(srcDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if flip {
		logData = append([]byte(nil), logData...)
		logData[cut] ^= 1 << uint(cut%8)
	} else {
		logData = logData[:cut]
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), logData, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := os.ReadFile(filepath.Join(srcDir, "snapshot.krs")); err == nil {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.krs"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The surviving prefix: every batch whose record ends at or before the
	// damage point. (A flip at `cut` invalidates the record containing that
	// byte; a truncation to `cut` tears it. Either way batches with
	// offset ≤ cut survive intact.)
	want := 0
	for i, s := range states {
		if i > 0 && s.offset <= cut {
			want = i
		}
	}
	if checkpointed > want {
		// The log was truncated below what the snapshot already holds;
		// recovery can never fall behind the snapshot.
		want = checkpointed
	}

	st2, ix2, rs := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	wantReplayed := want - max(checkpointed, 0)
	if rs.Replayed != wantReplayed {
		t.Fatalf("%s: replayed %d records, want %d (prefix %d, snapshot prefix %d)",
			trial, rs.Replayed, wantReplayed, want, checkpointed)
	}
	// Epoch exactness. Prefix 0 with no snapshot is the one state with no
	// durable epoch (the writer's initial generation was never journaled):
	// recovery issues a fresh one there, and monotonicity is checked below.
	if want > 0 && ix2.Epoch() != states[want].epoch {
		t.Fatalf("%s: recovered epoch %d, want %d (prefix %d)",
			trial, ix2.Epoch(), states[want].epoch, want)
	}

	// Answer exactness: every pair, against an oracle rebuilt from the
	// surviving prefix's recorded edge set.
	n := base.NumVertices()
	oracle := testgraph.NewReachOracle(graph.FromEdges(n, states[want].edges))
	sc := core.NewQueryScratch()
	k := ix2.K()
	mismatches := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			got := ix2.Reach(graph.Vertex(s), graph.Vertex(d), sc)
			if exp := oracle.Reach(graph.Vertex(s), graph.Vertex(d), k); got != exp {
				mismatches++
				if mismatches <= 3 {
					t.Errorf("%s: reach(%d,%d) = %v, oracle says %v", trial, s, d, got, exp)
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%s: %d mismatches over %d pairs at prefix %d", trial, mismatches, n*n, want)
	}
	if err := ix2.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", trial, err)
	}

	// Monotonicity: the next applied mutation must take a strictly newer
	// epoch than anything recovered, or epoch-keyed caches could serve a
	// pre-crash answer for post-recovery state.
	pre := ix2.Epoch()
	if res, err := ix2.Mutate(nil, []graph.Edge{states[want].edges[0]}); err != nil {
		t.Fatalf("%s: post-recovery mutation: %v", trial, err)
	} else if !res.Applied() || res.Epoch <= pre || res.Epoch <= states[len(states)-1].epoch {
		t.Fatalf("%s: post-recovery epoch %d not above recovered %d and last pre-crash %d",
			trial, res.Epoch, pre, states[len(states)-1].epoch)
	}
}

func TestCrashRecoverySoak(t *testing.T) {
	const (
		nVertices = 24
		nEdges    = 48
		batches   = 24
		randCuts  = 24
		randFlips = 16
	)
	rng := rand.New(rand.NewPCG(0xC0FFEE, 7))
	base := testgraph.Random(nVertices, nEdges, 11)
	ms := workload.NewMutationStream(base, 23, workload.MutationMix{Add: 0.6, Remove: 0.4})

	srcDir := t.TempDir()
	st, ix, _ := openRecover(t, srcDir, base, wal.Options{})
	states := []soakState{{offset: 4, edges: base.Edges()}}
	states = runBatches(t, ix, st, ms, rng, batches, states)
	st.Close()
	logLen := states[len(states)-1].offset

	// Every record boundary exactly, and one byte short of it (torn tail).
	for i := 1; i < len(states); i++ {
		verifyCrashPoint(t, srcDir, base, states, states[i].offset, false, -1,
			fmt.Sprintf("boundary[%d]", i))
		verifyCrashPoint(t, srcDir, base, states, states[i].offset-1, false, -1,
			fmt.Sprintf("boundary[%d]-1", i))
	}
	// Random kill points anywhere in the file, header and magic included.
	for i := 0; i < randCuts; i++ {
		cut := rng.Int64N(logLen + 1)
		verifyCrashPoint(t, srcDir, base, states, cut, false, -1,
			fmt.Sprintf("cut[%d]@%d", i, cut))
	}
	// Random single-bit rot after the magic.
	for i := 0; i < randFlips; i++ {
		pos := 4 + rng.Int64N(logLen-4)
		verifyCrashPoint(t, srcDir, base, states, pos, true, -1,
			fmt.Sprintf("flip[%d]@%d", i, pos))
	}
}

// TestCrashRecoverySoakWithCheckpoint reruns the soak across a compaction:
// crashes after the checkpoint must recover from snapshot + log suffix,
// including the prefix-0 case where the log is empty and the recovered
// epoch is the snapshot's.
func TestCrashRecoverySoakWithCheckpoint(t *testing.T) {
	const (
		nVertices = 24
		nEdges    = 48
		preBatch  = 8
		postBatch = 10
		randCuts  = 16
	)
	rng := rand.New(rand.NewPCG(0xBEEF, 3))
	base := testgraph.Random(nVertices, nEdges, 5)
	ms := workload.NewMutationStream(base, 29, workload.MutationMix{Add: 0.6, Remove: 0.4})

	srcDir := t.TempDir()
	st, ix, _ := openRecover(t, srcDir, base, wal.Options{})
	states := []soakState{{offset: 4, edges: base.Edges()}}
	states = runBatches(t, ix, st, ms, rng, preBatch, states)

	next, err := ix.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	ix = next
	// The checkpoint is itself a durable state: log truncated to the magic,
	// snapshot at the successor's epoch, same edge set as the last batch.
	checkpointed := len(states)
	states = append(states, soakState{
		epoch:  next.Epoch(),
		offset: 4,
		edges:  states[len(states)-1].edges,
	})
	states = runBatches(t, ix, st, ms, rng, postBatch, states)
	st.Close()
	logLen := states[len(states)-1].offset

	for i := checkpointed; i < len(states); i++ {
		verifyCrashPoint(t, srcDir, base, states, states[i].offset, false, checkpointed,
			fmt.Sprintf("boundary[%d]", i))
	}
	for i := 0; i < randCuts; i++ {
		cut := rng.Int64N(logLen + 1)
		verifyCrashPoint(t, srcDir, base, states, cut, false, checkpointed,
			fmt.Sprintf("cut[%d]@%d", i, cut))
	}
}
