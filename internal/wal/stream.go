package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// Replication feed wire format ("KRF1", little endian):
//
//	magic "KRF1"
//	frames, each:
//	    uint8 kind | uint32 payload length | uint32 crc32-IEEE(kind ∥ payload) | payload
//
//	kind 1 snapshot:  a complete KRS1 snapshot image
//	kind 2 records:   concatenated KRW1 record framings (no magic),
//	                  byte-for-byte as they sit in the primary's log — the
//	                  per-record CRCs written at append time travel intact
//	kind 3 heartbeat: uint64 newest durable epoch | uint64 served-through epoch
//
// Every chunk starts with one heartbeat frame, so a follower learns the
// primary's epoch (for lag accounting) before any state arrives, and — when
// any snapshot or records frame follows — ends with an identical heartbeat
// acting as the commit marker. The served-through epoch is the chunk's
// completeness promise: after applying every frame, the follower's state
// equals the primary's state at exactly that epoch. It trails the newest
// durable epoch only when a chunk was cut short by the byte cap; it exceeds
// the last record's epoch when a primary compaction issued a fresh epoch
// without a record (same edges, newer epoch) — the follower adopts the gap
// as an epoch marker. A consumer must treat served-through as binding ONLY
// when the last frame it read was a heartbeat: a stream cut at a frame
// boundary by a byzantine middlebox is a well-formed prefix the transport
// cannot flag, and without the trailing commit rule the leading heartbeat's
// promise would make the consumer adopt an epoch whose records it never saw.
//
// The frame CRC guards the transport (proxies, partial buffers, bit rot in
// flight); the inner KRW1 CRCs remain the durability check once records
// land in the follower's own log. A frame that fails either check kills
// the whole chunk: the follower resumes from its last durable epoch, so a
// torn or corrupt stream can delay replication but never skew it.

var feedMagic = [4]byte{'K', 'R', 'F', '1'}

// Frame kinds.
const (
	FrameSnapshot  byte = 1
	FrameRecords   byte = 2
	FrameHeartbeat byte = 3
)

const (
	frameHeaderSize = 9
	heartbeatSize   = 16
	// maxFramePayload caps what a frame header may demand before any
	// allocation happens; snapshots of real datasets sit far below it.
	maxFramePayload = 1 << 30
)

// ErrBadFeed reports a structurally invalid feed stream: bad magic, an
// unknown frame kind, a frame checksum mismatch, or a records payload that
// does not decode.
var ErrBadFeed = errors.New("wal: bad feed frame")

// ErrTornFeed reports a feed stream that ends mid-frame — the shape of a
// primary dying mid-ship or a connection cut. The consumer discards the
// torn remainder and resumes from its last durable epoch.
var ErrTornFeed = errors.New("wal: torn feed stream")

// FeedChunk is one replication feed response: optionally a full snapshot,
// then raw log records, plus the epoch bookkeeping a follower needs to
// resume exactly.
type FeedChunk struct {
	// Snapshot is a complete KRS1 image when the requested epoch predates
	// the retained log (or the requester is cold/divergent); nil when the
	// log can serve the gap.
	Snapshot []byte
	// Records holds concatenated KRW1 record framings sliced straight from
	// the log file, on-disk CRCs preserved.
	Records    []byte
	NumRecords int
	// ResumeFrom is the epoch the records resume after: the request's
	// from-epoch in tail mode, the shipped snapshot's epoch otherwise.
	ResumeFrom uint64
	// LastEpoch is the primary's newest durable epoch at capture time.
	LastEpoch uint64
	// ServedThrough is the chunk's completeness promise: applying the whole
	// chunk leaves the follower state-identical to the primary at exactly
	// this epoch. Equal to LastEpoch unless the byte cap cut the chunk.
	ServedThrough uint64
}

// AppendWire appends the chunk's KRF1 encoding to buf: magic, one
// heartbeat frame, then the snapshot and records frames when present,
// closed by a second identical heartbeat — the commit marker that lets a
// consumer distinguish a complete chunk from a prefix cut at a frame
// boundary.
func (c FeedChunk) AppendWire(buf []byte) []byte {
	buf = append(buf, feedMagic[:]...)
	var hb [heartbeatSize]byte
	binary.LittleEndian.PutUint64(hb[0:8], c.LastEpoch)
	binary.LittleEndian.PutUint64(hb[8:16], c.ServedThrough)
	buf = appendFrame(buf, FrameHeartbeat, hb[:])
	state := false
	if c.Snapshot != nil {
		buf = appendFrame(buf, FrameSnapshot, c.Snapshot)
		state = true
	}
	if len(c.Records) > 0 {
		buf = appendFrame(buf, FrameRecords, c.Records)
		state = true
	}
	if state {
		buf = appendFrame(buf, FrameHeartbeat, hb[:])
	}
	return buf
}

func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], frameSum(kind, payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameSum checksums a frame's kind byte together with its payload, so a
// flipped kind cannot reinterpret an otherwise-valid payload.
func frameSum(kind byte, payload []byte) uint32 {
	sum := crc32.Update(0, crc32.IEEETable, []byte{kind})
	return crc32.Update(sum, crc32.IEEETable, payload)
}

// FeedFrame is one decoded wire frame.
type FeedFrame struct {
	Kind    byte
	Payload []byte
}

// Heartbeat decodes a heartbeat frame's epochs.
func (f FeedFrame) Heartbeat() (lastEpoch, servedThrough uint64, err error) {
	if f.Kind != FrameHeartbeat {
		return 0, 0, fmt.Errorf("%w: not a heartbeat frame", ErrBadFeed)
	}
	if len(f.Payload) != heartbeatSize {
		return 0, 0, fmt.Errorf("%w: heartbeat payload is %d bytes, want %d", ErrBadFeed, len(f.Payload), heartbeatSize)
	}
	return binary.LittleEndian.Uint64(f.Payload[0:8]), binary.LittleEndian.Uint64(f.Payload[8:16]), nil
}

// FeedReader decodes a KRF1 stream frame by frame.
type FeedReader struct {
	r       io.Reader
	started bool
}

// NewFeedReader wraps r, which must carry one complete KRF1 stream.
func NewFeedReader(r io.Reader) *FeedReader {
	return &FeedReader{r: r}
}

// Next returns the next frame, io.EOF at a clean end-of-stream (a frame
// boundary after at least the magic), ErrTornFeed when the stream dies
// mid-frame, and ErrBadFeed for structural corruption. The payload is
// freshly allocated and CRC-verified.
func (fr *FeedReader) Next() (FeedFrame, error) {
	if !fr.started {
		var magic [4]byte
		if _, err := io.ReadFull(fr.r, magic[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return FeedFrame{}, fmt.Errorf("%w: truncated magic", ErrTornFeed)
			}
			return FeedFrame{}, err
		}
		if magic != feedMagic {
			return FeedFrame{}, fmt.Errorf("%w: bad magic %q", ErrBadFeed, magic[:])
		}
		fr.started = true
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return FeedFrame{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return FeedFrame{}, fmt.Errorf("%w: truncated frame header", ErrTornFeed)
		}
		return FeedFrame{}, err
	}
	kind := hdr[0]
	if kind < FrameSnapshot || kind > FrameHeartbeat {
		return FeedFrame{}, fmt.Errorf("%w: unknown frame kind %d", ErrBadFeed, kind)
	}
	size := binary.LittleEndian.Uint32(hdr[1:5])
	if size > maxFramePayload {
		return FeedFrame{}, fmt.Errorf("%w: implausible frame length %d", ErrBadFeed, size)
	}
	payload, err := readPayload(fr.r, int(size))
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return FeedFrame{}, fmt.Errorf("%w: truncated frame payload", ErrTornFeed)
		}
		return FeedFrame{}, err
	}
	if frameSum(kind, payload) != binary.LittleEndian.Uint32(hdr[5:9]) {
		return FeedFrame{}, fmt.Errorf("%w: frame checksum mismatch", ErrBadFeed)
	}
	return FeedFrame{Kind: kind, Payload: payload}, nil
}

// payloadStep is the first allocation for a frame payload; it doubles as
// bytes actually arrive.
const payloadStep = 64 << 10

// readPayload reads exactly size bytes from r, growing the buffer as they
// arrive instead of trusting the header up front: a stream that claims a
// large frame and then ends costs what it carried, not what it promised.
func readPayload(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, 0, min(size, payloadStep))
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(size-len(buf), cap(buf)))
		}
		n, err := io.ReadFull(r, buf[len(buf):min(size, cap(buf))])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeRecords decodes a records-frame payload into its records. The
// frame CRC already vouched for the bytes in flight, so any decode failure
// here is protocol corruption: the whole frame is rejected, nothing
// partial is returned.
func DecodeRecords(payload []byte) ([]Record, error) {
	var recs []Record
	off := 0
	for off < len(payload) {
		rec, n, err := decodeRecord(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("%w: record at offset %d: %v", ErrBadFeed, off, err)
		}
		off += n
		recs = append(recs, rec)
	}
	return recs, nil
}

// FeedSince captures one replication chunk for a consumer whose last
// applied epoch is from. Tail mode — records only — requires the log to
// provably hold every record newer than from: from must be at or above the
// tail floor and at or below the newest durable epoch. Anything else (cold
// start at 0, a cursor older than the retained window, or a cursor from a
// future this store never had — a divergent ex-primary) ships a full
// snapshot first. maxBytes > 0 caps the records region at a record
// boundary; at least one record is always served, and ServedThrough tells
// the consumer how far the cut chunk is complete.
func (s *Store) FeedSince(from uint64, maxBytes int) (FeedChunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ready {
		return FeedChunk{}, ErrNotRecovered
	}
	s.feedRequests.Add(1)
	ck := FeedChunk{LastEpoch: s.lastEpoch, ServedThrough: s.lastEpoch}
	start := from
	if tail := from > 0 && from >= s.tailFloor && from <= s.lastEpoch; !tail {
		snap, epoch, err := s.snapshotImageLocked()
		if err != nil {
			return FeedChunk{}, err
		}
		ck.Snapshot = snap
		start = epoch
		s.feedSnapshots.Add(1)
	}
	ck.ResumeFrom = start
	idx := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].epoch > start })
	if idx == len(s.recs) {
		return ck, nil
	}
	begin := int64(len(logMagic))
	if idx > 0 {
		begin = s.recs[idx-1].end
	}
	last := len(s.recs) - 1
	if maxBytes > 0 {
		for last > idx && s.recs[last].end-begin > int64(maxBytes) {
			last--
		}
	}
	if last < len(s.recs)-1 {
		ck.ServedThrough = s.recs[last].epoch
	}
	data, err := s.readLogRangeLocked(begin, s.recs[last].end)
	if err != nil {
		return FeedChunk{}, fmt.Errorf("wal: feed: %w", err)
	}
	ck.Records = data
	ck.NumRecords = last - idx + 1
	s.feedRecords.Add(uint64(ck.NumRecords))
	return ck, nil
}

// snapshotImageLocked returns the current snapshot file's bytes, or — for
// a store that has never checkpointed — a snapshot of the recovery base
// synthesized at epoch 0: the consumer builds a fresh index over it and
// replays every record (all epochs are > 0), exactly recovery's own rule.
func (s *Store) snapshotImageLocked() ([]byte, uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if err == nil {
		return data, s.snapEpoch, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("wal: feed snapshot: %w", err)
	}
	if s.base == nil {
		return nil, 0, errors.New("wal: feed: no snapshot and no base graph")
	}
	return AppendSnapshot(nil, s.base, 0), 0, nil
}

// readLogRangeLocked reads log bytes [begin, end) through a fresh read
// handle (the append handle is O_APPEND/write-only).
func (s *Store) readLogRangeLocked(begin, end int64) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.dir, logName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, end-begin)
	n, err := f.ReadAt(buf, begin)
	if err == io.EOF && n == len(buf) {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// WaitForEpoch blocks until the store's newest durable epoch exceeds
// after, the context ends, the timeout elapses (0: no timeout), or the
// store closes. It reports whether durable progress actually happened —
// the feed's long-poll primitive.
func (s *Store) WaitForEpoch(ctx context.Context, after uint64, timeout time.Duration) bool {
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		s.mu.Lock()
		if !s.ready {
			s.mu.Unlock()
			return false
		}
		if s.lastEpoch > after {
			s.mu.Unlock()
			return true
		}
		ch := s.watch
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		case <-expired:
			return false
		}
	}
}
