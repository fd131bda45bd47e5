package wal_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/wal"
)

// Tests for the replication feed: the snapshot-vs-tail decision boundary
// FeedSince promises (a follower must never be served a record gap), the
// checkpoint retention window that makes tailing possible at all, and the
// KRF1 wire codec's behavior under torn streams and bit rot.

// feedEpochs decodes a chunk's records region into its epochs.
func feedEpochs(t *testing.T, ck wal.FeedChunk) []uint64 {
	t.Helper()
	if len(ck.Records) == 0 {
		return nil
	}
	recs, err := wal.DecodeRecords(ck.Records)
	if err != nil {
		t.Fatalf("decoding feed records: %v", err)
	}
	if len(recs) != ck.NumRecords {
		t.Fatalf("chunk says %d records, payload holds %d", ck.NumRecords, len(recs))
	}
	epochs := make([]uint64, len(recs))
	for i, r := range recs {
		epochs[i] = r.Epoch
	}
	return epochs
}

// TestFeedSnapshotTailBoundary pins the decision FeedSince makes for every
// cursor position relative to the retained log: tail mode exactly when the
// log provably holds every record newer than the cursor (tailFloor <= from
// <= lastEpoch, from > 0), full snapshot otherwise.
func TestFeedSnapshotTailBoundary(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(8)
	st, ix, _ := openRecover(t, dir, base, wal.Options{RetainEpochs: 2})
	defer st.Close()

	var epochs []uint64 // e[0..3]: the four batch epochs
	for _, e := range []graph.Edge{edge(0, 5), edge(1, 6), edge(2, 7), edge(0, 7)} {
		res, err := ix.Mutate([]graph.Edge{e}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Applied() {
			t.Fatalf("batch %v did not apply", e)
		}
		epochs = append(epochs, res.Epoch)
	}
	next, err := ix.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := next.Epoch() // the checkpoint's fresh epoch, newer than e[3]

	stats := st.Stats()
	if stats.TailFloor != epochs[1] {
		t.Fatalf("tail floor %d after retaining 2 of 4 records, want %d", stats.TailFloor, epochs[1])
	}
	if stats.SnapshotEpoch != ckpt || stats.LastEpoch != ckpt {
		t.Fatalf("snapshot/last epoch %d/%d, want checkpoint %d", stats.SnapshotEpoch, stats.LastEpoch, ckpt)
	}

	cases := []struct {
		name         string
		from         uint64
		wantSnapshot bool
		wantRecords  []uint64
	}{
		{"cold start", 0, true, nil},
		{"below retained window", epochs[0], true, nil},
		{"at tail floor", epochs[1], false, []uint64{epochs[2], epochs[3]}},
		{"inside retained window", epochs[2], false, []uint64{epochs[3]}},
		{"at last record, compaction gap ahead", epochs[3], false, nil},
		{"at newest epoch", ckpt, false, nil},
		{"from a future this store never had", ckpt + 1000, true, nil},
	}
	for _, tc := range cases {
		ck, err := st.FeedSince(tc.from, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (ck.Snapshot != nil) != tc.wantSnapshot {
			t.Errorf("%s: snapshot present = %v, want %v", tc.name, ck.Snapshot != nil, tc.wantSnapshot)
		}
		if got := feedEpochs(t, ck); len(got) != len(tc.wantRecords) {
			t.Errorf("%s: record epochs %v, want %v", tc.name, got, tc.wantRecords)
		} else {
			for i := range got {
				if got[i] != tc.wantRecords[i] {
					t.Errorf("%s: record epochs %v, want %v", tc.name, got, tc.wantRecords)
					break
				}
			}
		}
		// Uncapped chunks always serve through the newest epoch: the promise
		// that closes a compaction's record-free epoch gap.
		if ck.LastEpoch != ckpt || ck.ServedThrough != ckpt {
			t.Errorf("%s: last/served %d/%d, want %d", tc.name, ck.LastEpoch, ck.ServedThrough, ckpt)
		}
		if tc.wantSnapshot {
			_, snapEpoch, err := wal.DecodeSnapshot(ck.Snapshot)
			if err != nil {
				t.Fatalf("%s: shipped snapshot does not decode: %v", tc.name, err)
			}
			if snapEpoch != ckpt || ck.ResumeFrom != ckpt {
				t.Errorf("%s: snapshot epoch %d resume %d, want %d", tc.name, snapEpoch, ck.ResumeFrom, ckpt)
			}
		}
	}
}

// TestFeedVirginStoreSynthesizesBaseSnapshot: a store that has never
// checkpointed has no snapshot file; a cold follower still gets one — the
// recovery base at epoch 0 — plus every record, mirroring recovery's rule.
func TestFeedVirginStoreSynthesizesBaseSnapshot(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(6)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	defer st.Close()
	res1, err := ix.Mutate([]graph.Edge{edge(0, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ix.Mutate([]graph.Edge{edge(5, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ck, err := st.FeedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, snapEpoch, err := wal.DecodeSnapshot(ck.Snapshot)
	if err != nil {
		t.Fatalf("synthesized snapshot does not decode: %v", err)
	}
	if snapEpoch != 0 || ck.ResumeFrom != 0 {
		t.Errorf("virgin snapshot epoch %d resume %d, want 0/0", snapEpoch, ck.ResumeFrom)
	}
	if g.NumVertices() != base.NumVertices() || g.NumEdges() != base.NumEdges() {
		t.Errorf("synthesized snapshot is %d/%d, want the base %d/%d",
			g.NumVertices(), g.NumEdges(), base.NumVertices(), base.NumEdges())
	}
	if got := feedEpochs(t, ck); len(got) != 2 || got[0] != res1.Epoch || got[1] != res2.Epoch {
		t.Errorf("record epochs %v, want [%d %d]", got, res1.Epoch, res2.Epoch)
	}
}

// TestFeedByteCapCutsAtRecordBoundary: a byte cap trims whole records off
// the chunk's tail, never splits one, always serves at least one, and
// ServedThrough reports exactly how far the cut chunk is complete.
func TestFeedByteCapCutsAtRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(8)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	defer st.Close()
	var epochs []uint64
	for _, e := range []graph.Edge{edge(0, 5), edge(1, 6), edge(2, 7)} {
		res, err := ix.Mutate([]graph.Edge{e}, nil)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, res.Epoch)
	}

	ck, err := st.FeedSince(epochs[0], 1) // 1 byte: below any record's size
	if err != nil {
		t.Fatal(err)
	}
	if got := feedEpochs(t, ck); len(got) != 1 || got[0] != epochs[1] {
		t.Fatalf("capped chunk epochs %v, want exactly [%d]", got, epochs[1])
	}
	if ck.ServedThrough != epochs[1] || ck.LastEpoch != epochs[2] {
		t.Errorf("served/last %d/%d, want %d/%d", ck.ServedThrough, ck.LastEpoch, epochs[1], epochs[2])
	}
	// Resuming from the cut point serves the remainder.
	ck2, err := st.FeedSince(ck.ServedThrough, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Snapshot != nil {
		t.Error("resume from a cut chunk re-shipped a snapshot")
	}
	if got := feedEpochs(t, ck2); len(got) != 1 || got[0] != epochs[2] {
		t.Errorf("resumed chunk epochs %v, want [%d]", got, epochs[2])
	}
}

// TestFeedRetentionDefaultTruncatesFully pins the default (RetainEpochs 0)
// checkpoint behavior — the whole log folds into the snapshot — and that
// the tail floor still lands on the last dropped record, so a follower
// standing exactly at the newest record needs no snapshot for the
// checkpoint's own epoch.
func TestFeedRetentionDefaultTruncatesFully(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(6)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	defer st.Close()
	res1, err := ix.Mutate([]graph.Edge{edge(0, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ix.Mutate([]graph.Edge{edge(5, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ix.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.LogBytes != 4 {
		t.Fatalf("default checkpoint left %d log bytes, want the bare magic", stats.LogBytes)
	}
	if stats.TailFloor != res2.Epoch {
		t.Errorf("tail floor %d, want last dropped record's %d", stats.TailFloor, res2.Epoch)
	}
	// A follower at the last pre-checkpoint record: tail mode, no records,
	// served through the checkpoint epoch (the compaction gap it adopts).
	ck, err := st.FeedSince(res2.Epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Snapshot != nil || ck.NumRecords != 0 || ck.ServedThrough != next.Epoch() {
		t.Errorf("at-tip follower got snapshot=%v records=%d served=%d, want tail gap to %d",
			ck.Snapshot != nil, ck.NumRecords, ck.ServedThrough, next.Epoch())
	}
	// One record older: the log no longer has res2's record — snapshot.
	if ck, err = st.FeedSince(res1.Epoch, 0); err != nil {
		t.Fatal(err)
	}
	if ck.Snapshot == nil {
		t.Error("follower below the truncated log was served a record gap instead of a snapshot")
	}
}

// TestFeedRetentionSurvivesRestart: the tail floor reconstructs from the
// retained records on reopen, so a restarted primary keeps serving tails to
// followers inside the retained window.
func TestFeedRetentionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(8)
	st, ix, _ := openRecover(t, dir, base, wal.Options{RetainEpochs: 2})
	var epochs []uint64
	for _, e := range []graph.Edge{edge(0, 5), edge(1, 6), edge(2, 7)} {
		res, err := ix.Mutate([]graph.Edge{e}, nil)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, res.Epoch)
	}
	if _, err := ix.Compact(nil); err != nil {
		t.Fatal(err)
	}
	floorBefore := st.Stats().TailFloor
	st.Close()

	st2, _, _ := openRecover(t, dir, base, wal.Options{RetainEpochs: 2})
	defer st2.Close()
	if got := st2.Stats().TailFloor; got != floorBefore || got != epochs[0] {
		t.Fatalf("reopened tail floor %d, want %d (pre-restart %d)", got, epochs[0], floorBefore)
	}
	ck, err := st2.FeedSince(epochs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Snapshot != nil {
		t.Error("restarted primary re-shipped a snapshot inside the retained window")
	}
	if got := feedEpochs(t, ck); len(got) != 2 || got[0] != epochs[1] || got[1] != epochs[2] {
		t.Errorf("record epochs %v, want [%d %d]", got, epochs[1], epochs[2])
	}
}

// readAllFrames drains a KRF1 stream, returning the frames and the error
// that ended it (io.EOF for a clean end).
func readAllFrames(data []byte) ([]wal.FeedFrame, error) {
	fr := wal.NewFeedReader(bytes.NewReader(data))
	var frames []wal.FeedFrame
	for {
		f, err := fr.Next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// wireChunk builds a real chunk (snapshot + records + heartbeat) to attack.
func wireChunk(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	base := testgraph.Path(6)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	defer st.Close()
	for _, e := range []graph.Edge{edge(0, 4), edge(5, 0)} {
		if _, err := ix.Mutate([]graph.Edge{e}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := st.FeedSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Snapshot == nil || ck.NumRecords != 2 {
		t.Fatalf("wire chunk not as expected: snapshot=%v records=%d", ck.Snapshot != nil, ck.NumRecords)
	}
	return ck.AppendWire(nil)
}

// TestFeedWireRoundTrip: an intact stream decodes to heartbeat, snapshot,
// records, and the trailing commit heartbeat — and each payload decodes
// with its inner format.
func TestFeedWireRoundTrip(t *testing.T) {
	wire := wireChunk(t)
	frames, err := readAllFrames(wire)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("intact stream ended with %v, want io.EOF", err)
	}
	if len(frames) != 4 ||
		frames[0].Kind != wal.FrameHeartbeat ||
		frames[1].Kind != wal.FrameSnapshot ||
		frames[2].Kind != wal.FrameRecords ||
		frames[3].Kind != wal.FrameHeartbeat {
		t.Fatalf("frame kinds %v, want [heartbeat snapshot records heartbeat]", frames)
	}
	last, served, err := frames[0].Heartbeat()
	if err != nil || last == 0 || served != last {
		t.Errorf("heartbeat %d/%d (err %v)", last, served, err)
	}
	// The commit heartbeat restates the leading one byte for byte: a chunk
	// cut at a frame boundary is detectable precisely because the promise
	// only counts when it is the stream's final frame.
	if !bytes.Equal(frames[3].Payload, frames[0].Payload) {
		t.Errorf("commit heartbeat %x differs from leading %x", frames[3].Payload, frames[0].Payload)
	}
	if _, _, err := wal.DecodeSnapshot(frames[1].Payload); err != nil {
		t.Errorf("snapshot frame payload: %v", err)
	}
	if recs, err := wal.DecodeRecords(frames[2].Payload); err != nil || len(recs) != 2 {
		t.Errorf("records frame payload: %d records, err %v", len(recs), err)
	}
}

// TestFeedWireTornEverywhere cuts the stream at every byte offset: the
// reader must either end cleanly at a frame boundary (io.EOF, a prefix of
// the true frames) or report ErrTornFeed — never invent a frame, never
// return a bad error class.
func TestFeedWireTornEverywhere(t *testing.T) {
	wire := wireChunk(t)
	full, _ := readAllFrames(wire)
	// Frame boundaries: after magic, then after each frame.
	boundaries := map[int]int{4: 0} // offset → frames decodable at it
	off := 4
	for i, f := range full {
		off += 9 + len(f.Payload)
		boundaries[off] = i + 1
	}
	for cut := 0; cut < len(wire); cut++ {
		frames, err := readAllFrames(wire[:cut])
		if wantFrames, clean := boundaries[cut]; clean {
			if !errors.Is(err, io.EOF) || len(frames) != wantFrames {
				t.Fatalf("cut@%d (boundary): %d frames, err %v; want %d frames and io.EOF",
					cut, len(frames), err, wantFrames)
			}
			continue
		}
		if !errors.Is(err, wal.ErrTornFeed) {
			t.Fatalf("cut@%d: err %v, want ErrTornFeed", cut, err)
		}
		if len(frames) > len(full) {
			t.Fatalf("cut@%d: torn stream yielded %d frames from %d", cut, len(frames), len(full))
		}
	}
}

// TestFeedWireBitFlipsDetected flips one bit at every byte of the stream:
// every flip must surface as ErrBadFeed or ErrTornFeed (a flipped length
// can make the stream look short) before the altered frame is returned.
// The kind byte is inside the frame checksum, so even a flip that turns
// one valid kind into another is caught.
func TestFeedWireBitFlipsDetected(t *testing.T) {
	wire := wireChunk(t)
	full, _ := readAllFrames(wire)
	for pos := 0; pos < len(wire); pos++ {
		bad := append([]byte(nil), wire...)
		bad[pos] ^= 1 << uint(pos%8)
		frames, err := readAllFrames(bad)
		if !errors.Is(err, wal.ErrBadFeed) && !errors.Is(err, wal.ErrTornFeed) {
			t.Fatalf("flip@%d: err %v, want ErrBadFeed or ErrTornFeed", pos, err)
		}
		// Every frame decoded before the error must be byte-identical to the
		// true stream's — corruption never leaks content.
		for i, f := range frames {
			if i >= len(full) || f.Kind != full[i].Kind || !bytes.Equal(f.Payload, full[i].Payload) {
				t.Fatalf("flip@%d: frame %d diverges from the intact stream", pos, i)
			}
		}
	}
}
