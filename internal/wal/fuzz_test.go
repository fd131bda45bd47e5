package wal_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"kreach/internal/graph"
	"kreach/internal/testgraph"
	"kreach/internal/wal"
)

// FuzzWALReplay throws hostile bytes at the full recovery pipeline: the
// KRW1 log decoder, the KRS1 snapshot decoder, and Store.Recover itself.
// The log is the one input the store must accept from disk after a crash,
// so the decoder can never trust it: bad CRCs, overflowing length
// prefixes, truncated tails, non-minimal varints, and foreign file formats
// all have to come back as a clean valid-prefix answer, never a panic or
// an over-read.
//
// Invariants enforced on every input:
//
//   - DecodeLog returns a valid-prefix length within the input and an
//     error drawn only from the documented set (nil, ErrTornTail,
//     ErrBadRecord, ErrBadMagic).
//   - Whatever records the decoder accepts survive a re-encode/re-decode
//     round trip semantically intact (byte identity is NOT required: a
//     hostile log can carry non-minimal varints that pass the CRC, and
//     the canonical writer is entitled to re-encode them shorter).
//   - DecodeSnapshot either rejects the input or returns a graph whose
//     canonical re-encoding decodes back to the same epoch and edges.
//   - Store.Recover over the input as a crashed wal.log either refuses
//     (foreign magic) or produces a usable index: invariants hold, the
//     torn tail is physically truncated, and the store accepts a
//     post-recovery append.
//
// Seeds below are regenerated from the live writers on every run, so the
// in-code corpus can never go stale; the checked-in corpus under
// testdata/fuzz/FuzzWALReplay holds the hostile shapes. CI fuzzes this
// target for a short burst on every push via `make fuzz-smoke`.
func FuzzWALReplay(f *testing.F) {
	valid := wal.AppendLog(nil, []wal.Record{
		{Epoch: 3, Add: []graph.Edge{edge(0, 1), edge(1, 2)}},
		{Epoch: 5, Remove: []graph.Edge{edge(0, 1)}},
		{Epoch: 9, Add: []graph.Edge{edge(2, 3)}, Remove: []graph.Edge{edge(1, 2)}},
	})
	f.Add([]byte(nil))
	f.Add(wal.AppendLog(nil, nil)) // magic only
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-payload
	f.Add(valid[:6])            // torn tail mid-header
	crcFlip := append([]byte(nil), valid...)
	crcFlip[9] ^= 0x40 // inside the first record's CRC field
	f.Add(crcFlip)
	// Implausible length prefix: claims ~4GiB record.
	f.Add(append([]byte("KRW1"), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte("KRG1\x00\x00\x00\x00")) // foreign-but-real magic
	// A snapshot stream offered as a log (and vice versa via DecodeSnapshot).
	f.Add(wal.AppendSnapshot(nil, testgraph.Path(4), 7))
	// Record with an out-of-range vertex: frame-valid, semantically hostile.
	f.Add(wal.AppendLog(nil, []wal.Record{{Epoch: 2, Add: []graph.Edge{edge(1<<29, 0)}}}))

	base := testgraph.Path(6)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}

		recs, validLen, err := wal.DecodeLog(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("valid prefix %d outside input of %d bytes", validLen, len(data))
		}
		switch {
		case err == nil:
			if len(data) >= 4 && validLen != len(data) {
				t.Fatalf("clean decode but valid prefix %d != %d", validLen, len(data))
			}
		case errors.Is(err, wal.ErrTornTail), errors.Is(err, wal.ErrBadRecord), errors.Is(err, wal.ErrBadMagic):
		default:
			t.Fatalf("undocumented DecodeLog error: %v", err)
		}

		// Accepted records must round-trip through the canonical writer.
		re := wal.AppendLog(nil, recs)
		recs2, validLen2, err2 := wal.DecodeLog(re)
		if err2 != nil || validLen2 != len(re) {
			t.Fatalf("re-encoded log does not decode cleanly: %v (valid %d of %d)", err2, validLen2, len(re))
		}
		requireSameRecords(t, recs, recs2)

		// The snapshot decoder faces the same hostile bytes on recovery.
		if g, epoch, serr := wal.DecodeSnapshot(data); serr == nil {
			reSnap := wal.AppendSnapshot(nil, g, epoch)
			g2, epoch2, serr2 := wal.DecodeSnapshot(reSnap)
			if serr2 != nil || epoch2 != epoch {
				t.Fatalf("snapshot re-encode: %v (epoch %d, want %d)", serr2, epoch2, epoch)
			}
			if g.NumVertices() != g2.NumVertices() || g.NumEdges() != g2.NumEdges() {
				t.Fatalf("snapshot re-encode changed shape: %d/%d vertices, %d/%d edges",
					g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
			}
		}

		// Full replay: the input as the wal.log a crashed process left
		// behind. Kept to small inputs so the fuzzer's throughput stays
		// useful; the decoders above run on everything.
		if len(data) > 8<<10 {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ix, _, rs, err := st.Recover(base, dopts)
		if err != nil {
			return // refused (foreign magic, mismatched snapshot): fine.
		}
		if ix == nil {
			t.Fatal("Recover returned nil index without error")
		}
		if got := ix.Epoch(); got != rs.Epoch {
			t.Fatalf("index epoch %d != recovery stats epoch %d", got, rs.Epoch)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("recovered index invariants: %v", err)
		}
		// The torn tail must be physically gone: the log on disk is now
		// exactly the valid prefix (or a fresh magic for an empty one).
		onDisk, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		wantLen := validLen
		if wantLen == 0 {
			wantLen = 4 // recovery writes a fresh magic header
		}
		if len(onDisk) != wantLen {
			t.Fatalf("post-recovery log is %d bytes, want %d", len(onDisk), wantLen)
		}
		// And the store must be writable: append-before-apply on a live
		// mutation against the recovered state.
		if _, err := ix.Mutate([]graph.Edge{edge(0, 5)}, nil); err != nil {
			t.Fatalf("post-recovery mutation: %v", err)
		}
	})
}

// requireSameRecords asserts semantic record equality: epochs and edge
// lists match pairwise.
func requireSameRecords(t *testing.T, a, b []wal.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record count changed across re-encode: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch {
			t.Fatalf("record %d epoch changed: %d != %d", i, a[i].Epoch, b[i].Epoch)
		}
		if len(a[i].Add) != len(b[i].Add) || len(a[i].Remove) != len(b[i].Remove) {
			t.Fatalf("record %d batch sizes changed", i)
		}
		for j := range a[i].Add {
			if a[i].Add[j] != b[i].Add[j] {
				t.Fatalf("record %d add[%d] changed: %v != %v", i, j, a[i].Add[j], b[i].Add[j])
			}
		}
		for j := range a[i].Remove {
			if a[i].Remove[j] != b[i].Remove[j] {
				t.Fatalf("record %d remove[%d] changed: %v != %v", i, j, a[i].Remove[j], b[i].Remove[j])
			}
		}
	}
}

// FuzzFeedDecode throws hostile bytes at the replication feed decoders a
// follower runs on its primary's response body: FeedReader.Next frame by
// frame, then DecodeRecords on each records frame and Heartbeat on each
// heartbeat frame. The frame CRC stops the mutator short of the inner
// decoders, so every input is also re-shipped as the records payload of an
// honestly framed chunk, which puts the raw bytes in front of
// DecodeRecords.
//
// Invariants enforced on every input:
//
//   - Every call returns a value or an error wrapping ErrBadFeed,
//     ErrTornFeed or (Next only) io.EOF; nothing panics.
//   - Next yields only the three documented frame kinds and at most one
//     frame per frame header's worth of input.
//   - Decoding allocates in proportion to the bytes that arrived, not to
//     what a frame header claims, which keeps it far below
//     maxFramePayload for any input the fuzzer can build.
func FuzzFeedDecode(f *testing.F) {
	wire := wireChunk(f)
	f.Add(wire)
	f.Add(wire[:len(wire)-5]) // torn inside the commit heartbeat
	flipped := append([]byte(nil), wire...)
	flipped[len(flipped)/2] ^= 0x10 // inside the snapshot or records frame
	f.Add(flipped)
	// A records frame header claiming 64 MiB, then nothing.
	f.Add(append([]byte("KRF1"), wal.FrameRecords, 0, 0, 0, 4, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		reframed := wal.FeedChunk{Records: data, LastEpoch: 1, ServedThrough: 1}.AppendWire(nil)
		for _, stream := range [][]byte{data, reframed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			drainFeed(t, stream)
			runtime.ReadMemStats(&after)
			// A payload buffer starts at 64 KiB and at most doubles past the
			// bytes delivered; decoded edges take at most 4× their encoding.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(stream)); got > limit {
				t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(stream), got, limit)
			}
		}
	})
}

// drainFeed decodes stream to its end, checking every result's error class.
func drainFeed(t *testing.T, stream []byte) {
	fr := wal.NewFeedReader(bytes.NewReader(stream))
	for frames := 0; ; frames++ {
		if frames > len(stream)/9 {
			t.Fatalf("%d frames from %d bytes", frames, len(stream))
		}
		frame, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			if !errors.Is(err, wal.ErrBadFeed) && !errors.Is(err, wal.ErrTornFeed) {
				t.Fatalf("undocumented Next error: %v", err)
			}
			return
		}
		switch frame.Kind {
		case wal.FrameSnapshot:
		case wal.FrameRecords:
			if _, err := wal.DecodeRecords(frame.Payload); err != nil && !errors.Is(err, wal.ErrBadFeed) {
				t.Fatalf("undocumented DecodeRecords error: %v", err)
			}
		case wal.FrameHeartbeat:
			if _, _, err := frame.Heartbeat(); err != nil && !errors.Is(err, wal.ErrBadFeed) {
				t.Fatalf("undocumented Heartbeat error: %v", err)
			}
		default:
			t.Fatalf("Next returned unknown frame kind %d", frame.Kind)
		}
	}
}
