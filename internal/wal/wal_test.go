package wal_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/wal"
	"kreach/internal/wal/waltest"
)

var dopts = dynamic.Options{K: 3}

func edge(s, t int) graph.Edge {
	return graph.Edge{Src: graph.Vertex(s), Dst: graph.Vertex(t)}
}

// openRecover opens a store over dir and recovers an index from base.
func openRecover(t testing.TB, dir string, base *graph.Graph, opts wal.Options) (*wal.Store, *dynamic.Index, wal.RecoveryStats) {
	t.Helper()
	st, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, _, rs, err := st.Recover(base, dopts)
	if err != nil {
		t.Fatal(err)
	}
	return st, ix, rs
}

func TestLogRoundTrip(t *testing.T) {
	recs := []wal.Record{
		{Epoch: 7, Add: []graph.Edge{edge(0, 1), edge(2, 3)}},
		{Epoch: 9, Remove: []graph.Edge{edge(0, 1)}},
		{Epoch: 12, Add: []graph.Edge{edge(4, 5)}, Remove: []graph.Edge{edge(2, 3)}},
		{Epoch: 13}, // journaled batch that turned out to be a no-op
	}
	data := wal.AppendLog(nil, recs)
	got, valid, err := wal.DecodeLog(data)
	if err != nil {
		t.Fatalf("DecodeLog: %v", err)
	}
	if valid != len(data) {
		t.Errorf("valid prefix %d, want %d", valid, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		want := recs[i]
		if rec.Epoch != want.Epoch ||
			len(rec.Add) != len(want.Add) || len(rec.Remove) != len(want.Remove) {
			t.Errorf("record %d: got %+v want %+v", i, rec, want)
		}
		for j := range want.Add {
			if rec.Add[j] != want.Add[j] {
				t.Errorf("record %d add %d: got %v want %v", i, j, rec.Add[j], want.Add[j])
			}
		}
		for j := range want.Remove {
			if rec.Remove[j] != want.Remove[j] {
				t.Errorf("record %d remove %d: got %v want %v", i, j, rec.Remove[j], want.Remove[j])
			}
		}
	}
}

// frame wraps a raw payload in a length+CRC header, bypassing the encoder
// so tests can frame hostile payloads that AppendLog would never produce.
func frame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

func TestDecodeLogHostile(t *testing.T) {
	magic := wal.AppendLog(nil, nil)
	oneRec := wal.AppendLog(nil, []wal.Record{{Epoch: 5, Add: []graph.Edge{edge(1, 2)}}})

	// Payload with a declared edge count far beyond its bytes.
	hugeCount := binary.AppendUvarint(nil, 5) // epoch
	hugeCount = binary.AppendUvarint(hugeCount, 1<<40)
	// Payload with trailing garbage after a valid record body.
	trailing := binary.AppendUvarint(nil, 5)
	trailing = binary.AppendUvarint(trailing, 0) // no adds
	trailing = binary.AppendUvarint(trailing, 0) // no removes
	trailing = append(trailing, 0xAB)
	// Payload with an out-of-range vertex id.
	bigVertex := binary.AppendUvarint(nil, 5)
	bigVertex = binary.AppendUvarint(bigVertex, 1)
	bigVertex = binary.AppendUvarint(bigVertex, 1<<40)
	bigVertex = binary.AppendUvarint(bigVertex, 2)
	bigVertex = binary.AppendUvarint(bigVertex, 0)

	badCRC := append([]byte(nil), oneRec...)
	badCRC[len(badCRC)-1] ^= 0xFF

	hugeLen := append(append([]byte(nil), magic...), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0)

	cases := []struct {
		name    string
		data    []byte
		wantErr error
		records int
		valid   int
	}{
		{"empty file", nil, nil, 0, 0},
		{"magic only", magic, nil, 0, 4},
		{"partial magic", magic[:2], wal.ErrTornTail, 0, 0},
		{"foreign magic", []byte("KRG1rest"), wal.ErrBadMagic, 0, 0},
		{"one record", oneRec, nil, 1, len(oneRec)},
		{"torn header", oneRec[:len(magic)+3], wal.ErrTornTail, 0, 4},
		{"torn payload", oneRec[:len(oneRec)-2], wal.ErrTornTail, 0, 4},
		{"crc flip", badCRC, wal.ErrBadRecord, 0, 4},
		{"implausible length", hugeLen, wal.ErrBadRecord, 0, 4},
		{"huge edge count", append(append([]byte(nil), magic...), frame(hugeCount)...), wal.ErrBadRecord, 0, 4},
		{"trailing payload bytes", append(append([]byte(nil), magic...), frame(trailing)...), wal.ErrBadRecord, 0, 4},
		{"vertex out of range", append(append([]byte(nil), magic...), frame(bigVertex)...), wal.ErrBadRecord, 0, 4},
		{"valid then torn", append(append([]byte(nil), oneRec...), 0x01, 0x02), wal.ErrTornTail, 1, len(oneRec)},
	}
	for _, tc := range cases {
		recs, valid, err := wal.DecodeLog(tc.data)
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if len(recs) != tc.records || valid != tc.valid {
			t.Errorf("%s: got %d records / %d valid, want %d / %d",
				tc.name, len(recs), valid, tc.records, tc.valid)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testgraph.Random(20, 40, 3)
	data := wal.AppendSnapshot(nil, g, 42)
	got, epoch, err := wal.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 {
		t.Errorf("epoch %d, want 42", epoch)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Errorf("graph %d/%d, want %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"epoch bit flip", func(b []byte) []byte { b[6] ^= 0x10; return b }},
		{"crc flip", func(b []byte) []byte { b[13] ^= 0x01; return b }},
		{"torn graph payload", func(b []byte) []byte { return b[:len(b)-3] }},
	} {
		bad := tc.mut(append([]byte(nil), data...))
		if _, _, err := wal.DecodeSnapshot(bad); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
	}
}

// TestRecoverRoundTrip is the basic durability contract: mutate, drop the
// process state, recover, and see the same edge set and the same epoch.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(6) // 0→1→…→5
	st, ix, rs := openRecover(t, dir, base, wal.Options{})
	if rs.SnapshotEpoch != 0 || rs.Replayed != 0 || rs.TornTail {
		t.Fatalf("virgin recovery stats %+v", rs)
	}
	if ix.Reach(0, 5, nil) {
		t.Fatal("0→5 within 3 hops of a 6-path?")
	}
	if _, err := ix.Mutate([]graph.Edge{edge(0, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Mutate([]graph.Edge{edge(5, 0)}, []graph.Edge{edge(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Reach(0, 5, nil) || ix.Reach(0, 2, nil) {
		t.Fatal("pre-crash answers wrong")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, ix2, rs2 := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	if rs2.Replayed != 2 || rs2.TornTail {
		t.Errorf("recovery stats %+v, want 2 replayed, no torn tail", rs2)
	}
	if ix2.Epoch() != res.Epoch {
		t.Errorf("recovered epoch %d, want pre-crash %d", ix2.Epoch(), res.Epoch)
	}
	if !ix2.Reach(0, 5, nil) || ix2.Reach(0, 2, nil) || !ix2.Reach(5, 4, nil) {
		t.Error("recovered answers diverge from pre-crash state")
	}
	if err := ix2.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Post-recovery mutations must journal and take strictly newer epochs.
	res3, err := ix2.Mutate([]graph.Edge{edge(2, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Epoch <= res.Epoch {
		t.Errorf("post-recovery epoch %d not above recovered %d", res3.Epoch, res.Epoch)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	res1, err := ix.Mutate([]graph.Edge{edge(0, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	intact := st.Stats().LogBytes
	if _, err := ix.Mutate([]graph.Edge{edge(4, 0)}, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Crash mid-append of the second record: chop 3 bytes off the tail.
	logPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, ix2, rs := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	if !rs.TornTail || rs.Replayed != 1 {
		t.Errorf("recovery stats %+v, want torn tail and 1 replayed", rs)
	}
	if ix2.Epoch() != res1.Epoch {
		t.Errorf("recovered epoch %d, want %d (second record was torn)", ix2.Epoch(), res1.Epoch)
	}
	if !ix2.Reach(0, 3, nil) || ix2.Reach(4, 0, nil) {
		t.Error("recovered state should hold batch 1 only")
	}
	if got, err := os.ReadFile(logPath); err != nil || int64(len(got)) != intact {
		t.Errorf("log not truncated at last valid record: %d bytes, want %d (err %v)", len(got), intact, err)
	}
}

func TestCheckpointAndSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	if _, err := ix.Mutate([]graph.Edge{edge(0, 3), edge(3, 0)}, nil); err != nil {
		t.Fatal(err)
	}
	next, err := ix.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	snapEpoch := next.Epoch() // before the next batch moves it
	stats := st.Stats()
	if stats.Checkpoints != 1 || stats.SnapshotEpoch != snapEpoch {
		t.Fatalf("after compaction: %+v, want 1 checkpoint at epoch %d", stats, snapEpoch)
	}
	if stats.LogBytes != 4 {
		t.Errorf("log not truncated to magic after checkpoint: %d bytes", stats.LogBytes)
	}
	// One more batch on top of the snapshot.
	res, err := next.Mutate([]graph.Edge{edge(4, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, ix2, rs := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	if rs.SnapshotEpoch != snapEpoch || rs.Replayed != 1 {
		t.Errorf("recovery stats %+v, want snapshot epoch %d and 1 replayed", rs, snapEpoch)
	}
	if ix2.Epoch() != res.Epoch {
		t.Errorf("recovered epoch %d, want %d", ix2.Epoch(), res.Epoch)
	}
	if !ix2.Reach(0, 3, nil) || !ix2.Reach(3, 0, nil) || !ix2.Reach(4, 1, nil) {
		t.Error("recovered state lost a batch across the checkpoint")
	}

	// Snapshot-only recovery (empty log): the epoch must be the snapshot's,
	// via RestoreEpoch — no replayed record adopts one.
	st2.Close()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal.AppendLog(nil, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, ix3, rs3 := openRecover(t, dir, base, wal.Options{})
	defer st3.Close()
	if rs3.Replayed != 0 {
		t.Errorf("replayed %d from an empty log", rs3.Replayed)
	}
	if ix3.Epoch() != snapEpoch {
		t.Errorf("snapshot-only recovery epoch %d, want snapshot's %d", ix3.Epoch(), snapEpoch)
	}
}

// TestRecoverySkipsPreSnapshotRecords models a crash between the snapshot
// rename and the log truncation inside Checkpoint: the log still holds
// records already folded into the snapshot, which replay must skip or the
// recovered state double-applies them.
func TestRecoverySkipsPreSnapshotRecords(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	// Snapshot at epoch 100 = base + (0→3); log still holds the epoch-90
	// record that produced it, plus a newer epoch-110 record.
	snapG := graph.FromEdges(5, append(base.Edges(), edge(0, 3)))
	if err := os.WriteFile(filepath.Join(dir, "snapshot.krs"),
		wal.AppendSnapshot(nil, snapG, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	log := wal.AppendLog(nil, []wal.Record{
		{Epoch: 90, Add: []graph.Edge{edge(0, 3)}},
		{Epoch: 110, Add: []graph.Edge{edge(4, 0)}},
	})
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	st, ix, rs := openRecover(t, dir, base, wal.Options{})
	defer st.Close()
	if rs.SnapshotEpoch != 100 || rs.Replayed != 1 {
		t.Errorf("recovery stats %+v, want snapshot 100 and exactly 1 replayed", rs)
	}
	if ix.Epoch() != 110 {
		t.Errorf("recovered epoch %d, want 110", ix.Epoch())
	}
	// The epoch-90 record must not double-apply: (0,3) is a DupAdd if
	// retried, which would corrupt nothing here — but a remove in its place
	// would. Assert via state: both edges live, invariants hold.
	if !ix.Reach(0, 3, nil) || !ix.Reach(4, 0, nil) {
		t.Error("recovered state wrong")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRecoverRefusesForeignLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("not a wal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Recover(testgraph.Path(3), dopts); !errors.Is(err, wal.ErrBadMagic) {
		t.Fatalf("foreign log recovered: err = %v", err)
	}
}

func TestRecoverRejectsMismatchedSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.krs"),
		wal.AppendSnapshot(nil, testgraph.Path(9), 5), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Recover(testgraph.Path(3), dopts); err == nil {
		t.Fatal("snapshot with wrong vertex count accepted")
	}
}

// failOpen returns an Options whose log file fails per the returned
// pointer's fields; the pointer is live — tests adjust budgets mid-run.
func failOpen(opts wal.Options, ff *waltest.FailFile) wal.Options {
	opts.OpenFile = func(path string) (wal.File, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		ff.Inner = f
		return ff, nil
	}
	return opts
}

func TestFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	ff := &waltest.FailFile{Remaining: 1 << 20}
	st, ix, _ := openRecover(t, dir, base, failOpen(wal.Options{}, ff))
	if _, err := ix.Mutate([]graph.Edge{edge(0, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	good := st.Stats().LogBytes

	// The next record dies 5 bytes in; the store must truncate the torn
	// prefix away and refuse the mutation with the index unchanged.
	ff.Remaining = 5
	pre := ix.Epoch()
	if _, err := ix.Mutate([]graph.Edge{edge(4, 0)}, nil); !errors.Is(err, waltest.ErrInjected) {
		t.Fatalf("mutation survived a dead log: err = %v", err)
	}
	if ix.Epoch() != pre || ix.Reach(4, 0, nil) {
		t.Error("failed append leaked into the index")
	}
	if got := st.Stats().LogBytes; got != good {
		t.Errorf("log at %d bytes after rollback, want %d", got, good)
	}
	st.Close()

	// On-disk truth: only the acknowledged record.
	st2, ix2, rs := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	if rs.Replayed != 1 || rs.TornTail {
		t.Errorf("recovery stats %+v, want exactly the acknowledged record", rs)
	}
	if !ix2.Reach(0, 3, nil) || ix2.Reach(4, 0, nil) {
		t.Error("recovered state diverges from acknowledged history")
	}
}

func TestFailedSyncRollsBack(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	ff := &waltest.FailFile{Remaining: 1 << 20}
	st, ix, _ := openRecover(t, dir, base, failOpen(wal.Options{Sync: wal.SyncAlways}, ff))
	defer st.Close()
	good := st.Stats().LogBytes
	ff.FailSync = true
	if _, err := ix.Mutate([]graph.Edge{edge(4, 0)}, nil); !errors.Is(err, waltest.ErrInjected) {
		t.Fatalf("mutation acknowledged without a durable record: err = %v", err)
	}
	if got := st.Stats().LogBytes; got != good {
		t.Errorf("unsynced record kept: log at %d bytes, want %d", got, good)
	}
	if ix.Reach(4, 0, nil) {
		t.Error("unsynced mutation applied")
	}
}

func TestWedgedStoreFailsFast(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	ff := &waltest.FailFile{Remaining: 1 << 20}
	st, ix, _ := openRecover(t, dir, base, failOpen(wal.Options{}, ff))
	if _, err := ix.Mutate([]graph.Edge{edge(0, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	// Append dies mid-record AND the repair truncate fails: the store must
	// wedge — a torn record sits mid-file, so accepting more appends would
	// write records recovery can never reach.
	ff.Remaining, ff.FailTruncate = 5, true
	if _, err := ix.Mutate([]graph.Edge{edge(4, 0)}, nil); !errors.Is(err, waltest.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	ff.Remaining = 1 << 20 // budget restored, but the wedge must hold
	if _, err := ix.Mutate([]graph.Edge{edge(4, 1)}, nil); err == nil {
		t.Fatal("wedged store accepted an append")
	}
	if ix.Reach(4, 0, nil) || ix.Reach(4, 1, nil) {
		t.Error("refused mutations leaked into the index")
	}
	st.Close()

	// Recovery heals the wedge: the torn record is truncated away and the
	// acknowledged prefix survives.
	st2, ix2, rs := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	if !rs.TornTail || rs.Replayed != 1 {
		t.Errorf("recovery stats %+v, want torn tail over 1 good record", rs)
	}
	if !ix2.Reach(0, 3, nil) || ix2.Reach(4, 0, nil) {
		t.Error("recovered state diverges from acknowledged history")
	}
}

func TestSyncPolicyCounters(t *testing.T) {
	for _, tc := range []struct {
		policy    wal.SyncPolicy
		wantSyncs uint64
	}{
		{wal.SyncAlways, 2},
		{wal.SyncNever, 0},
	} {
		dir := t.TempDir()
		st, ix, _ := openRecover(t, dir, testgraph.Path(5), wal.Options{Sync: tc.policy})
		if _, err := ix.Mutate([]graph.Edge{edge(0, 3)}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Mutate([]graph.Edge{edge(4, 0)}, nil); err != nil {
			t.Fatal(err)
		}
		stats := st.Stats()
		if stats.RecordsAppended != 2 || stats.Syncs != tc.wantSyncs {
			t.Errorf("%v: appended %d syncs %d, want 2/%d",
				tc.policy, stats.RecordsAppended, stats.Syncs, tc.wantSyncs)
		}
		st.Close()
	}
}

func TestAppendBeforeRecoverRefused(t *testing.T) {
	st, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, []graph.Edge{edge(0, 1)}, nil); !errors.Is(err, wal.ErrNotRecovered) {
		t.Fatalf("append before recover: err = %v", err)
	}
	if err := st.Checkpoint(testgraph.Path(3), 1); !errors.Is(err, wal.ErrNotRecovered) {
		t.Fatalf("checkpoint before recover: err = %v", err)
	}
}

// TestNoOpBatchKeepsEpochAcrossRecovery pins the subtle epoch contract: a
// journaled batch that applies nothing (all duplicates) must leave both
// the live epoch and the recovered epoch at the last applied batch's.
func TestNoOpBatchKeepsEpochAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	base := testgraph.Path(5)
	st, ix, _ := openRecover(t, dir, base, wal.Options{})
	res, err := ix.Mutate([]graph.Edge{edge(0, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	noop, err := ix.Mutate([]graph.Edge{edge(0, 3)}, nil) // duplicate: no-op
	if err != nil {
		t.Fatal(err)
	}
	if noop.Applied() || noop.Epoch != res.Epoch {
		t.Fatalf("no-op batch moved the epoch: %+v after %+v", noop, res)
	}
	st.Close()

	st2, ix2, rs := openRecover(t, dir, base, wal.Options{})
	defer st2.Close()
	if rs.Replayed != 2 {
		t.Errorf("replayed %d, want both records (no-op included)", rs.Replayed)
	}
	if ix2.Epoch() != res.Epoch {
		t.Errorf("recovered epoch %d, want %d (no-op record must not adopt)", ix2.Epoch(), res.Epoch)
	}
}
