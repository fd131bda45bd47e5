package wal_test

// Backward-compatibility proof for the durability formats, mirroring the
// repo-root golden_test.go contract: the files under testdata/golden/ were
// written by the KRW1/KRS1 writers when this test was introduced and are
// never regenerated casually. Every future revision must still decode
// them, recover the pinned index state from them, and re-serialize the
// canonical ones byte-for-byte — so an on-disk format drift fails here
// before it can strand anyone's write-ahead log, and deliberate revisions
// are forced into a new magic instead of silently rewriting KRW1.
//
// The fixture story runs over the paper's Figure 1 graph (a..j as 0..9):
//
//	tiny.wal   three batches — add j→a (epoch 3); add f→g, remove b→d
//	           (epoch 5); add h→c (epoch 9)
//	torn.wal   tiny.wal with its last 5 bytes torn off mid-record, the
//	           canonical kill-mid-append artifact
//	empty.wal  a freshly initialized log: magic header only
//	tiny.krs   a KRS1 snapshot of the unmutated Figure 1 graph at epoch 42

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"kreach/internal/core"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/wal"
)

func readGoldenWAL(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatalf("golden file missing (never delete or regenerate these): %v", err)
	}
	return data
}

// recoverGolden recovers a dynamic index from golden fixture files staged
// as a crashed durability directory.
func recoverGolden(t *testing.T, logFixture, snapFixture string) (*wal.Store, *dynamic.Index, wal.RecoveryStats, string) {
	t.Helper()
	dir := t.TempDir()
	if logFixture != "" {
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), readGoldenWAL(t, logFixture), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snapFixture != "" {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.krs"), readGoldenWAL(t, snapFixture), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, ix, rs := openRecover(t, dir, testgraph.PaperFigure1(), wal.Options{})
	return st, ix, rs, dir
}

var goldenRecords = []wal.Record{
	{Epoch: 3, Add: []graph.Edge{edge(9, 0)}},
	{Epoch: 5, Add: []graph.Edge{edge(5, 6)}, Remove: []graph.Edge{edge(1, 3)}},
	{Epoch: 9, Add: []graph.Edge{edge(7, 2)}},
}

func TestGoldenLogDecodesByteForByte(t *testing.T) {
	raw := readGoldenWAL(t, "tiny.wal")
	recs, valid, err := wal.DecodeLog(raw)
	if err != nil {
		t.Fatalf("golden log no longer decodes: %v", err)
	}
	if valid != len(raw) {
		t.Fatalf("golden log valid prefix %d of %d bytes", valid, len(raw))
	}
	requireSameRecords(t, goldenRecords, recs)
	if out := wal.AppendLog(nil, recs); !bytes.Equal(out, raw) {
		t.Fatal("KRW1 round-trip is no longer byte-identical: the log format drifted")
	}
}

// goldenPinnedReach are hand-derived 3-hop facts on Figure 1 after all
// three golden batches: j→a and h→c exist, b→d does not.
var goldenPinnedReach = []struct {
	s, d graph.Vertex
	want bool
}{
	{9, 1, true},  // j→a→b, 2 hops, via the epoch-3 add
	{5, 8, true},  // f→g→i, 2 hops, via the epoch-5 add
	{7, 1, true},  // h→c→b, 2 hops, via the epoch-9 add
	{1, 4, false}, // b→d→e died with the epoch-5 remove
	{0, 4, false}, // a→b→d→e likewise
	{3, 7, true},  // d→e→g→h, exactly 3, untouched by the log
	{3, 9, false}, // d→…→j needs 4
}

func TestGoldenLogRecovers(t *testing.T) {
	st, ix, rs, _ := recoverGolden(t, "tiny.wal", "")
	defer st.Close()
	if rs.Replayed != 3 || rs.TornTail {
		t.Fatalf("recovery stats drifted: %+v", rs)
	}
	if ix.Epoch() != 9 {
		t.Fatalf("recovered epoch %d, want 9", ix.Epoch())
	}
	sc := core.NewQueryScratch()
	for _, q := range goldenPinnedReach {
		if got := ix.Reach(q.s, q.d, sc); got != q.want {
			t.Fatalf("golden recovery answers Reach(%d,%d) = %v, want %v", q.s, q.d, got, q.want)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenTornLogRecovers(t *testing.T) {
	raw := readGoldenWAL(t, "torn.wal")
	recs, valid, err := wal.DecodeLog(raw)
	if !errors.Is(err, wal.ErrTornTail) {
		t.Fatalf("torn golden log decoded with %v, want ErrTornTail", err)
	}
	requireSameRecords(t, goldenRecords[:2], recs)

	st, ix, rs, dir := recoverGolden(t, "torn.wal", "")
	defer st.Close()
	if rs.Replayed != 2 || !rs.TornTail {
		t.Fatalf("recovery stats drifted: %+v", rs)
	}
	if ix.Epoch() != 5 {
		t.Fatalf("recovered epoch %d, want 5", ix.Epoch())
	}
	sc := core.NewQueryScratch()
	// The epoch-9 batch is torn away: h→c never happened, the rest holds.
	for _, q := range goldenPinnedReach {
		want := q.want
		if q.s == 7 && q.d == 1 {
			want = false
		}
		if got := ix.Reach(q.s, q.d, sc); got != want {
			t.Fatalf("torn recovery answers Reach(%d,%d) = %v, want %v", q.s, q.d, got, want)
		}
	}
	// Recovery must have physically truncated the tail to the valid prefix.
	onDisk, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != valid {
		t.Fatalf("post-recovery torn log is %d bytes, want %d", len(onDisk), valid)
	}
	if !bytes.Equal(onDisk, raw[:valid]) {
		t.Fatal("post-recovery torn log is not the valid prefix")
	}
}

func TestGoldenEmptyLog(t *testing.T) {
	raw := readGoldenWAL(t, "empty.wal")
	recs, valid, err := wal.DecodeLog(raw)
	if err != nil || len(recs) != 0 || valid != len(raw) {
		t.Fatalf("empty golden log decoded to %d records, valid %d, err %v", len(recs), valid, err)
	}
	if out := wal.AppendLog(nil, nil); !bytes.Equal(out, raw) {
		t.Fatal("freshly initialized log header is no longer byte-identical to the golden one")
	}
	st, ix, rs, _ := recoverGolden(t, "empty.wal", "")
	defer st.Close()
	if rs.Replayed != 0 || rs.TornTail || rs.SnapshotEpoch != 0 {
		t.Fatalf("recovery stats drifted: %+v", rs)
	}
	// Unmutated Figure 1 under k=3: Example 2's verdicts.
	sc := core.NewQueryScratch()
	if !ix.Reach(1, 6, sc) || ix.Reach(1, 7, sc) {
		t.Fatal("empty-log recovery does not answer like the base graph")
	}
}

func TestGoldenSnapshotDecodesByteForByte(t *testing.T) {
	raw := readGoldenWAL(t, "tiny.krs")
	g, epoch, err := wal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("golden snapshot no longer decodes: %v", err)
	}
	if epoch != 42 {
		t.Fatalf("golden snapshot epoch %d, want 42", epoch)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 9 || !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("golden snapshot graph changed shape")
	}
	if out := wal.AppendSnapshot(nil, g, epoch); !bytes.Equal(out, raw) {
		t.Fatal("KRS1 round-trip is no longer byte-identical: the snapshot format drifted")
	}

	// Snapshot-only recovery: the epoch survives even with an absent log.
	st, ix, rs, _ := recoverGolden(t, "", "tiny.krs")
	defer st.Close()
	if rs.SnapshotEpoch != 42 || rs.Replayed != 0 {
		t.Fatalf("recovery stats drifted: %+v", rs)
	}
	if ix.Epoch() != 42 {
		t.Fatalf("snapshot-only recovery epoch %d, want 42", ix.Epoch())
	}
	if got := st.Stats().LastEpoch; got != 42 {
		t.Fatalf("snapshot-only recovery last_epoch %d, want 42", got)
	}
}
