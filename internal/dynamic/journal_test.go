package dynamic_test

// Contract tests for the Index↔Journal coupling, with a stub journal so
// every assertion is about the index's side of the append-before-apply
// protocol: what gets journaled (the filtered batch, under the epoch the
// caller is then told), what never does (replays, no-op-after-filter
// batches... journaled but unapplied ones keep the old epoch), and how a
// journal failure leaves the index bit-for-bit untouched.

import (
	"errors"
	"testing"

	"kreach/internal/core"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// journalCall records one Append the stub received.
type journalCall struct {
	epoch       uint64
	add, remove []graph.Edge
}

// stubJournal implements dynamic.Journal and records everything.
type stubJournal struct {
	appends     []journalCall
	checkpoints []uint64
	failAppend  error
}

func (j *stubJournal) Append(epoch uint64, add, remove []graph.Edge) error {
	if j.failAppend != nil {
		return j.failAppend
	}
	j.appends = append(j.appends, journalCall{
		epoch:  epoch,
		add:    append([]graph.Edge(nil), add...),
		remove: append([]graph.Edge(nil), remove...),
	})
	return nil
}

func (j *stubJournal) Checkpoint(g *graph.Graph, epoch uint64) error {
	j.checkpoints = append(j.checkpoints, epoch)
	return nil
}

func newJournaledIndex(t *testing.T) (*dynamic.Index, *stubJournal) {
	t.Helper()
	ix, err := dynamic.New(testgraph.Path(6), dynamic.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	j := &stubJournal{}
	ix.SetJournal(j)
	return ix, j
}

// TestJournalSeesFilteredBatchUnderReportedEpoch: the journal receives
// exactly the in-range ops, tagged with the epoch Mutate then acknowledges
// — the record on disk and the answer to the caller can never disagree.
func TestJournalSeesFilteredBatchUnderReportedEpoch(t *testing.T) {
	ix, j := newJournaledIndex(t)
	res, err := ix.Mutate(
		[]graph.Edge{{Src: 5, Dst: 0}, {Src: 99, Dst: 0}},
		[]graph.Edge{{Src: 2, Dst: 3}, {Src: 0, Dst: -1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnknownVertex != 2 || !res.Applied() {
		t.Fatalf("unexpected result: %+v", res)
	}
	if len(j.appends) != 1 {
		t.Fatalf("journal saw %d appends, want 1", len(j.appends))
	}
	call := j.appends[0]
	if call.epoch != res.Epoch || call.epoch != ix.Epoch() {
		t.Fatalf("journaled epoch %d, acknowledged %d, index %d", call.epoch, res.Epoch, ix.Epoch())
	}
	if len(call.add) != 1 || call.add[0] != (graph.Edge{Src: 5, Dst: 0}) {
		t.Fatalf("journaled adds %v, want the one in-range add", call.add)
	}
	if len(call.remove) != 1 || call.remove[0] != (graph.Edge{Src: 2, Dst: 3}) {
		t.Fatalf("journaled removes %v, want the one in-range remove", call.remove)
	}
}

// TestJournalFailureAbortsMutate: a failed append must leave the index
// exactly as it was — answers, epoch, and every counter.
func TestJournalFailureAbortsMutate(t *testing.T) {
	ix, j := newJournaledIndex(t)
	if _, err := ix.Mutate([]graph.Edge{{Src: 5, Dst: 0}}, nil); err != nil {
		t.Fatal(err)
	}
	before := ix.Stats()
	sc := core.NewQueryScratch()
	if ix.Reach(0, 5, sc) {
		t.Fatal("sanity: 0→5 unreachable in a 6-path under k=3")
	}

	boom := errors.New("disk on fire")
	j.failAppend = boom
	_, err := ix.Mutate([]graph.Edge{{Src: 2, Dst: 5}}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Mutate returned %v, want the journal's error", err)
	}
	if ix.Reach(0, 5, sc) {
		t.Fatal("aborted mutation leaked into the edge set")
	}
	if after := ix.Stats(); after != before {
		t.Fatalf("aborted mutation changed stats:\n before %+v\n after  %+v", before, after)
	}

	// The index stays usable once the journal heals.
	j.failAppend = nil
	res, err := ix.Mutate([]graph.Edge{{Src: 2, Dst: 5}}, nil)
	if err != nil || !res.Applied() {
		t.Fatalf("post-failure mutation: %+v, %v", res, err)
	}
	if res.Epoch <= before.Epoch {
		t.Fatalf("post-failure epoch %d not beyond %d", res.Epoch, before.Epoch)
	}
}

// TestJournalSkipsEmptyFilteredBatch: when every op is filtered out there
// is nothing worth replaying, so nothing is journaled.
func TestJournalSkipsEmptyFilteredBatch(t *testing.T) {
	ix, j := newJournaledIndex(t)
	res, err := ix.Mutate([]graph.Edge{{Src: 77, Dst: 78}}, []graph.Edge{{Src: -1, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied() || res.UnknownVertex != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if len(j.appends) != 0 {
		t.Fatalf("empty filtered batch was journaled: %+v", j.appends)
	}
}

// TestJournaledNoOpKeepsEpoch: a duplicate add survives filtering and is
// journaled (replay re-applies it as the same no-op) but the batch does
// not apply, so the acknowledged epoch must not move.
func TestJournaledNoOpKeepsEpoch(t *testing.T) {
	ix, j := newJournaledIndex(t)
	before := ix.Epoch()
	res, err := ix.Mutate([]graph.Edge{{Src: 0, Dst: 1}}, nil) // already present
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied() || res.DupAdds != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if len(j.appends) != 1 {
		t.Fatalf("no-op batch journaled %d times, want 1", len(j.appends))
	}
	if res.Epoch != before || ix.Epoch() != before {
		t.Fatalf("no-op moved the epoch: %d → %d", before, res.Epoch)
	}
}

// TestReplayNeverJournals: replayed records are already durable; writing
// them again would double every batch on the next recovery.
func TestReplayNeverJournals(t *testing.T) {
	ix, j := newJournaledIndex(t)
	res, err := ix.Replay([]graph.Edge{{Src: 5, Dst: 0}}, nil, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied() || res.Epoch != 1234 || ix.Epoch() != 1234 {
		t.Fatalf("replay did not adopt the recorded epoch: %+v, index %d", res, ix.Epoch())
	}
	if len(j.appends) != 0 {
		t.Fatalf("replay wrote to the journal: %+v", j.appends)
	}
}

// TestCompactCheckpointsAndInheritsJournal: Compact checkpoints the
// compacted graph under the successor's epoch, and the successor keeps
// journaling — durability survives the RCU swap.
func TestCompactCheckpointsAndInheritsJournal(t *testing.T) {
	ix, j := newJournaledIndex(t)
	if _, err := ix.Mutate([]graph.Edge{{Src: 5, Dst: 0}}, nil); err != nil {
		t.Fatal(err)
	}
	next, err := ix.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.checkpoints) != 1 || j.checkpoints[0] != next.Epoch() {
		t.Fatalf("checkpoints %v, want exactly the successor epoch %d", j.checkpoints, next.Epoch())
	}
	res, err := next.Mutate([]graph.Edge{{Src: 4, Dst: 1}}, nil)
	if err != nil || !res.Applied() {
		t.Fatalf("successor mutation: %+v, %v", res, err)
	}
	if len(j.appends) != 2 || j.appends[1].epoch != res.Epoch {
		t.Fatalf("successor did not inherit the journal: %+v", j.appends)
	}
}
