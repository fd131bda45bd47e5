package wal_test

// Follower-side journal fault (ISSUE 10 satellite 2, local-disk half): a
// follower applies replicated records through Index.ApplyRecord, which
// journals them under the primary's exact epochs. When the follower's own
// log dies mid-record, the apply must fail with the in-memory state rolled
// back, the durable prefix must survive untouched, and a restart must
// resume from the last durable epoch — tail-served by the primary, no
// re-shipped snapshot — and converge to the primary's exact epoch and
// edge set.

import (
	"errors"
	"testing"

	"kreach/internal/core"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/wal"
	"kreach/internal/wal/waltest"
	"kreach/internal/workload"
)

func TestReplicatedApplyJournalFaultResumes(t *testing.T) {
	base := testgraph.Random(20, 40, 9)
	n := base.NumVertices()

	// Primary: eight single-op batches, full history retained in the log.
	pst, pix, _ := openRecover(t, t.TempDir(), base, wal.Options{})
	defer pst.Close()
	ms := workload.NewMutationStream(base, 31, workload.MutationMix{Add: 0.6, Remove: 0.4})
	var final uint64
	for applied := 0; applied < 8; {
		var add, remove []graph.Edge
		switch op := ms.Next(); op.Kind {
		case workload.OpAdd:
			add = []graph.Edge{{Src: op.U, Dst: op.V}}
		case workload.OpRemove:
			remove = []graph.Edge{{Src: op.U, Dst: op.V}}
		default:
			continue
		}
		res, err := pix.Mutate(add, remove)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Applied() {
			t.Fatalf("stream op did not apply: %+v", res)
		}
		final = res.Epoch
		applied++
	}
	ck, err := pst.FeedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := wal.DecodeRecords(ck.Records)
	if err != nil || len(recs) != 8 {
		t.Fatalf("feed carried %d records (err %v), want 8", len(recs), err)
	}

	// Follower over a journal that will die mid-record: the first four
	// replicated applies land durably, the fifth tears.
	fDir := t.TempDir()
	ff := &waltest.FailFile{Remaining: 1 << 20}
	fst, fix, _ := openRecover(t, fDir, base, failOpen(wal.Options{}, ff))
	for _, rec := range recs[:4] {
		if _, err := fix.ApplyRecord(rec.Add, rec.Remove, rec.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	durable := recs[3].Epoch
	goodBytes := fst.Stats().LogBytes
	ff.Remaining = 5
	if _, err := fix.ApplyRecord(recs[4].Add, recs[4].Remove, recs[4].Epoch); !errors.Is(err, waltest.ErrInjected) {
		t.Fatalf("replicated apply survived a dead journal: err = %v", err)
	}
	if fix.Epoch() != durable {
		t.Fatalf("failed apply moved the cursor: epoch %d, want %d", fix.Epoch(), durable)
	}
	if got := fst.Stats().LogBytes; got != goodBytes {
		t.Fatalf("torn journal prefix kept: %d bytes, want %d", got, goodBytes)
	}
	fst.Close()

	// Restart over the same directory with a healthy disk: recovery resumes
	// from the last durable epoch, and the primary can tail-serve the rest —
	// the cursor sits inside the retained log, so no snapshot re-ships.
	fst2, fix2, rs := openRecover(t, fDir, base, wal.Options{})
	defer fst2.Close()
	if rs.Replayed != 4 || fix2.Epoch() != durable {
		t.Fatalf("recovery replayed %d records to epoch %d, want 4 to %d", rs.Replayed, fix2.Epoch(), durable)
	}
	ck2, err := pst.FeedSince(fix2.Epoch(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Snapshot != nil {
		t.Fatal("resume inside the retained log re-shipped a snapshot")
	}
	recs2, err := wal.DecodeRecords(ck2.Records)
	if err != nil || len(recs2) != 4 {
		t.Fatalf("resume feed carried %d records (err %v), want 4", len(recs2), err)
	}
	for _, rec := range recs2 {
		if rec.Epoch <= fix2.Epoch() {
			continue
		}
		if _, err := fix2.ApplyRecord(rec.Add, rec.Remove, rec.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if fix2.Epoch() != final || fix2.Epoch() != pix.Epoch() {
		t.Fatalf("follower at epoch %d, primary at %d (want %d)", fix2.Epoch(), pix.Epoch(), final)
	}

	// Full-pair answer equality against a BFS oracle over the stream's
	// ground-truth edge set — zero mismatches, the campaign's bar.
	oracle := testgraph.NewReachOracle(graph.FromEdges(n, ms.Edges()))
	sc := core.NewQueryScratch()
	k := fix2.K()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			got := fix2.Reach(graph.Vertex(s), graph.Vertex(d), sc)
			if want := oracle.Reach(graph.Vertex(s), graph.Vertex(d), k); got != want {
				t.Fatalf("reach(%d,%d) = %v, oracle %v", s, d, got, want)
			}
		}
	}
}
