package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kreach/internal/codec"
	"kreach/internal/core"
	"kreach/internal/dynamic"
	"kreach/internal/graph"
	"kreach/internal/obs"
)

// Package-global latency histograms, merged across stores (one serving
// process rarely runs more than a handful of WALs, and per-store splits
// are available via StoreStats). The serving layer adopts these into its
// /metrics registry; they are live even when no server is attached.
var (
	// AppendLatency is the full durable-append span: encode, write and —
	// under SyncAlways — the fsync.
	AppendLatency = obs.NewHistogram()
	// FsyncLatency is the fsync span alone, the disk's contribution to
	// AppendLatency (empty under SyncNever).
	FsyncLatency = obs.NewHistogram()
	// CheckpointLatency is the full checkpoint span: snapshot write, fsync,
	// rename, directory sync and log truncation.
	CheckpointLatency = obs.NewHistogram()
)

// SyncPolicy controls when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log after every appended batch: a mutation is
	// acknowledged only once it would survive a crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: crash durability is bounded by
	// the kernel's writeback horizon, in exchange for mutation latency
	// that never waits on the disk.
	SyncNever
)

func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// File is the write surface the store needs from its log file. *os.File
// satisfies it; waltest wraps it to inject write/sync/truncate faults.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// Options configures Open.
type Options struct {
	// Sync is the fsync policy for appended records (default SyncAlways).
	Sync SyncPolicy
	// RetainEpochs keeps the newest N log records across a checkpoint
	// instead of truncating the whole log. A follower whose cursor falls
	// inside the retained window streams records; outside it, the feed
	// re-ships a full snapshot. 0 (the default) preserves the original
	// truncate-everything behavior.
	RetainEpochs int
	// OpenFile overrides how the log file is opened for appending; nil
	// means os.OpenFile with O_APPEND. Fault-injection tests use it to
	// wrap the file in a waltest failpoint.
	OpenFile func(path string) (File, error)
}

func (o Options) openFile(path string) (File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

const (
	logName      = "wal.log"
	snapshotName = "snapshot.krs"
)

// ErrNotRecovered reports an Append or Checkpoint before Recover has
// established what the durable state is.
var ErrNotRecovered = errors.New("wal: store not recovered yet")

// Store is the durability directory of one dynamic dataset: a write-ahead
// log of mutation batches plus the latest compacted snapshot. It
// implements dynamic.Journal, so attaching it to a dynamic.Index (Recover
// does this) makes every mutation batch durable before it applies and
// every compaction a checkpoint that truncates the log.
//
// Concurrency: the index serializes journal calls behind its own mutation
// mutex; the store's lock exists so Stats and a concurrent writer never
// race, not to order writers.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         File
	size      int64
	ready     bool
	broken    error // a failed append that could not be rolled back
	snapEpoch uint64
	lastEpoch uint64
	enc       []byte // append encoding scratch

	// recs indexes every live log record (epoch, end offset) in log order.
	// tailFloor is the feed's resume boundary: the log is guaranteed to
	// contain every record with epoch strictly greater than it, so a
	// follower at epoch >= tailFloor can tail records instead of
	// re-shipping a snapshot.
	recs      []recMark
	tailFloor uint64
	// base is the graph Recover rebuilt from; the feed synthesizes an
	// epoch-0 snapshot from it for cold-start followers of a store that
	// has never checkpointed.
	base *graph.Graph
	// watch is closed and replaced whenever durable state advances; feed
	// long-polls block on it.
	watch chan struct{}

	appended      atomic.Uint64
	syncs         atomic.Uint64
	replayed      atomic.Uint64
	checkpoints   atomic.Uint64
	truncations   atomic.Uint64
	feedRequests  atomic.Uint64
	feedSnapshots atomic.Uint64
	feedRecords   atomic.Uint64
}

// Open prepares the durability directory (creating it if needed) and
// returns a store. Nothing is read or written until Recover, which must
// run before the store accepts appends.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Store{dir: dir, opts: opts, watch: make(chan struct{})}, nil
}

// RecoveryStats reports what Recover found.
type RecoveryStats struct {
	// SnapshotEpoch is the epoch of the compacted snapshot the index was
	// rebuilt from (0: no snapshot, the base graph was used).
	SnapshotEpoch uint64
	// Replayed counts the log records applied on top of the snapshot.
	Replayed int
	// TornTail reports that the log ended in an invalid or incomplete
	// record — the crash-mid-append shape — which was truncated away.
	TornTail bool
	// Epoch is the recovered index's epoch: exactly the epoch of the last
	// durable applied batch (or the snapshot's, or a fresh generation for
	// a virgin store).
	Epoch uint64
}

// Recover rebuilds the dataset's dynamic index from the durability
// directory: the compacted snapshot if one exists (base otherwise), plus a
// replay of every valid log record newer than the snapshot. A torn or
// corrupt log tail is truncated at the last valid record. The returned
// graph is the base the recovered overlay sits on (the snapshot's graph,
// or base). The store is attached to the returned index as its journal, so
// subsequent mutations append before they apply.
//
// The process generation counter is advanced past every recovered epoch
// before the index is built, so post-recovery epochs stay monotonic and an
// epoch-keyed cache can never serve a pre-crash answer for a newer state.
func (s *Store) Recover(base *graph.Graph, dopts dynamic.Options) (*dynamic.Index, *graph.Graph, RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st RecoveryStats
	if s.ready {
		return nil, nil, st, errors.New("wal: store already recovered")
	}

	g := base
	snapPath := filepath.Join(s.dir, snapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		sg, epoch, derr := DecodeSnapshot(data)
		if derr != nil {
			return nil, nil, st, fmt.Errorf("wal: snapshot %s: %w", snapPath, derr)
		}
		if base != nil && sg.NumVertices() != base.NumVertices() {
			return nil, nil, st, fmt.Errorf(
				"wal: snapshot %s has %d vertices, base graph has %d — wrong durability directory?",
				snapPath, sg.NumVertices(), base.NumVertices())
		}
		g, s.snapEpoch, st.SnapshotEpoch = sg, epoch, epoch
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, st, fmt.Errorf("wal: %w", err)
	}
	if g == nil {
		return nil, nil, st, errors.New("wal: no snapshot and no base graph")
	}

	logPath := filepath.Join(s.dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, st, fmt.Errorf("wal: %w", err)
	}
	recs, marks, valid, derr := decodeLogMarks(data)
	if errors.Is(derr, ErrBadMagic) {
		// Not a KRW1 log: refuse to truncate a foreign file.
		return nil, nil, st, fmt.Errorf("wal: %s: %w", logPath, derr)
	}

	// Advance the generation counter past every persisted epoch before any
	// index construction issues a fresh one.
	maxEpoch := s.snapEpoch
	for _, rec := range recs {
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
	}
	core.AdvanceGeneration(maxEpoch)

	ix, err := dynamic.New(g, dopts)
	if err != nil {
		return nil, nil, st, err
	}
	// The newest durable epoch starts at the snapshot's; replayed records
	// (always newer) advance it below.
	s.lastEpoch = s.snapEpoch
	adopted := false
	for _, rec := range recs {
		if rec.Epoch <= s.snapEpoch {
			// Remnant from before the last checkpoint: a crash landed
			// between the snapshot rename and the log truncation. The
			// snapshot already contains these batches.
			continue
		}
		res, err := ix.Replay(rec.Add, rec.Remove, rec.Epoch)
		if err != nil {
			return nil, nil, st, fmt.Errorf("wal: replaying record at epoch %d: %w", rec.Epoch, err)
		}
		st.Replayed++
		s.replayed.Add(1)
		s.lastEpoch = rec.Epoch
		// A record adopts its epoch when it changed the edge set, and also
		// when it is an empty epoch marker (a follower's durable note of a
		// primary compaction) — both leave the index at rec.Epoch.
		adopted = adopted || res.Epoch == rec.Epoch
	}
	if !adopted && s.snapEpoch > 0 {
		// No replayed batch changed the edge set, so the pre-crash epoch
		// was the snapshot's (issued for the compacted index).
		ix.RestoreEpoch(s.snapEpoch)
	}

	if derr != nil {
		st.TornTail = true
		if err := os.Truncate(logPath, int64(valid)); err != nil {
			return nil, nil, st, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		s.truncations.Add(1)
	}
	f, err := s.opts.openFile(logPath)
	if err != nil {
		return nil, nil, st, fmt.Errorf("wal: %w", err)
	}
	s.f, s.size = f, int64(valid)
	if valid == 0 {
		// Virgin (or fully torn) log: start it with the magic.
		if _, err := f.Write(logMagic[:]); err != nil {
			f.Close()
			return nil, nil, st, fmt.Errorf("wal: writing log header: %w", err)
		}
		s.size = int64(len(logMagic))
	}
	s.recs = marks
	s.base = g
	// Earlier checkpoints may have dropped records older than the first one
	// still in the log, so the provable feed floor after a restart is just
	// below the first retained record's epoch (the snapshot's when the log
	// is empty): epochs are integers, so no record can sit strictly between
	// epoch-1 and epoch, and everything strictly newer than the floor is
	// present — the first record included.
	if len(marks) > 0 {
		s.tailFloor = marks[0].epoch - 1
	} else {
		s.tailFloor = s.snapEpoch
	}
	s.ready = true
	st.Epoch = ix.Epoch()
	ix.SetJournal(s)
	return ix, g, st, nil
}

// Append makes one mutation batch durable; it implements dynamic.Journal
// and is called by Index.Mutate before anything applies. On a write or
// sync failure the half-written record is truncated away so the log stays
// a clean prefix of acknowledged batches; if even that repair fails the
// store wedges and every later append fails fast (queries keep serving,
// mutations are refused rather than silently non-durable).
func (s *Store) Append(epoch uint64, add, remove []graph.Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ready {
		return ErrNotRecovered
	}
	if s.broken != nil {
		return fmt.Errorf("wal: log wedged by unrepaired append failure: %w", s.broken)
	}
	start := time.Now()
	defer func() { AppendLatency.Observe(time.Since(start)) }()
	s.enc = appendRecord(s.enc[:0], Record{Epoch: epoch, Add: add, Remove: remove})
	n, err := s.f.Write(s.enc)
	if err == nil && n != len(s.enc) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.rollback(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	s.size += int64(n)
	if s.opts.Sync == SyncAlways {
		syncStart := time.Now()
		err := s.f.Sync()
		FsyncLatency.Observe(time.Since(syncStart))
		if err != nil {
			// The record's durability is unknown; roll it back so the
			// acknowledged history stays a prefix of the durable one.
			s.size -= int64(n)
			s.rollback(err)
			return fmt.Errorf("wal: fsync: %w", err)
		}
		s.syncs.Add(1)
	}
	s.appended.Add(1)
	s.lastEpoch = epoch
	s.recs = append(s.recs, recMark{epoch: epoch, end: s.size})
	s.notifyLocked()
	return nil
}

// notifyLocked wakes every feed long-poll blocked on durable progress.
func (s *Store) notifyLocked() {
	close(s.watch)
	s.watch = make(chan struct{})
}

// rollback truncates the log back to the last good record boundary after a
// failed append; if the truncate itself fails, a torn record would sit
// mid-file and hide every later append from recovery, so the store wedges.
func (s *Store) rollback(cause error) {
	if err := s.f.Truncate(s.size); err != nil {
		s.broken = cause
		return
	}
	s.truncations.Add(1)
}

// Checkpoint makes a compacted snapshot durable and trims the log; it
// implements dynamic.Journal and is called inside Index.Compact with the
// materialized graph and the successor's epoch, while the index's mutation
// mutex blocks concurrent appends. The snapshot is written to a temp file,
// fsynced and renamed over the old one, so a crash at any byte leaves
// either the old or the new snapshot — never a torn one; a crash after the
// rename but before the log trim is healed at recovery by the epoch filter
// (records at or below the snapshot epoch are skipped).
//
// With Options.RetainEpochs > 0 the newest N records survive the
// checkpoint (rewritten into a fresh log via temp+rename), so followers
// within that window keep streaming records; the feed floor rises to the
// epoch of the newest dropped record.
func (s *Store) Checkpoint(g *graph.Graph, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ready {
		return ErrNotRecovered
	}
	start := time.Now()
	defer func() { CheckpointLatency.Observe(time.Since(start)) }()
	if err := s.writeSnapshotLocked(g, epoch); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	s.snapEpoch = epoch
	s.lastEpoch = epoch
	s.base = g
	keep := s.opts.RetainEpochs
	if keep > len(s.recs) {
		keep = len(s.recs)
	}
	drop := len(s.recs) - keep
	switch {
	case keep <= 0:
		// Every logged batch is folded into the snapshot: drop the
		// records, keep the magic.
		if len(s.recs) > 0 {
			s.tailFloor = s.recs[len(s.recs)-1].epoch
		}
		if err := s.f.Truncate(int64(len(logMagic))); err != nil {
			// The snapshot is durable, so recovery stays correct either way
			// (the epoch filter skips the stale records); report the failure
			// so the compaction surfaces it.
			return fmt.Errorf("wal: truncating log after checkpoint: %w", err)
		}
		s.size = int64(len(logMagic))
		s.recs = s.recs[:0]
	case drop == 0:
		// Retention window is wider than the log: nothing to trim.
	default:
		newFloor := s.recs[drop-1].epoch
		if err := s.rewriteLogLocked(drop); err != nil {
			return fmt.Errorf("wal: retaining log tail after checkpoint: %w", err)
		}
		s.tailFloor = newFloor
	}
	s.checkpoints.Add(1)
	s.notifyLocked()
	return nil
}

// rewriteLogLocked drops the oldest drop records by writing magic + the
// surviving tail to a temp file and renaming it over the log, then swaps
// the append handle onto the new inode. A crash mid-rewrite leaves the old
// log intact; a rename that lands is complete. If the new file cannot be
// reopened the store wedges (the old handle points at an unlinked inode —
// appending there would silently lose durability).
func (s *Store) rewriteLogLocked(drop int) error {
	cut := s.recs[drop-1].end
	logPath := filepath.Join(s.dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	if int64(len(data)) < s.size {
		return fmt.Errorf("log shorter than tracked size: %d < %d", len(data), s.size)
	}
	tmp := logPath + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := tf.Write(logMagic[:])
	if werr == nil {
		_, werr = tf.Write(data[cut:s.size])
	}
	if werr == nil {
		werr = tf.Sync()
	}
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, logPath)
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	syncDir(s.dir)
	nf, err := s.opts.openFile(logPath)
	if err != nil {
		s.broken = err
		return err
	}
	s.f.Close()
	s.f = nf
	shift := cut - int64(len(logMagic))
	s.size -= shift
	kept := s.recs[drop:]
	for i := range kept {
		kept[i].end -= shift
	}
	s.recs = append(s.recs[:0], kept...)
	return nil
}

// Reset makes an externally shipped snapshot the store's entire durable
// state: the snapshot is written (temp, fsync, rename), the log is cleared
// completely — retention does not apply, because any logged record belongs
// to a history the snapshot replaces — and the durable epoch becomes
// exactly epoch. Followers adopting a primary's snapshot use it; the
// primary's own compactions go through Checkpoint.
func (s *Store) Reset(g *graph.Graph, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ready {
		return ErrNotRecovered
	}
	if err := s.writeSnapshotLocked(g, epoch); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	s.snapEpoch = epoch
	s.lastEpoch = epoch
	s.base = g
	s.tailFloor = epoch
	if err := s.f.Truncate(int64(len(logMagic))); err != nil {
		return fmt.Errorf("wal: truncating log after reset: %w", err)
	}
	s.size = int64(len(logMagic))
	s.recs = s.recs[:0]
	s.broken = nil
	s.checkpoints.Add(1)
	s.notifyLocked()
	return nil
}

// writeSnapshotLocked writes g at epoch as the store's snapshot via
// temp + fsync + rename + directory sync.
func (s *Store) writeSnapshotLocked(g *graph.Graph, epoch uint64) error {
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	if err := writeSnapshotFile(tmp, g, epoch); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	return nil
}

// Close releases the log file handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ready = false
	s.notifyLocked() // feed long-polls re-check ready and bail
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// StoreStats is a point-in-time snapshot of the store's counters.
type StoreStats struct {
	Dir             string
	Sync            SyncPolicy
	RetainEpochs    int    // configured checkpoint retention window
	RecordsAppended uint64 // batches made durable since Open
	Syncs           uint64 // fsyncs issued for appends
	RecordsReplayed uint64 // records replayed by Recover
	Checkpoints     uint64 // snapshots written since Open
	Truncations     uint64 // torn-tail and failed-append truncations
	SnapshotEpoch   uint64 // epoch of the current snapshot (0: none)
	LastEpoch       uint64 // highest epoch made durable
	TailFloor       uint64 // feed resume boundary: records > this are in the log
	LogBytes        int64  // current log size, magic included
	FeedRequests    uint64 // replication feed chunks served
	FeedSnapshots   uint64 // feed chunks that shipped a full snapshot
	FeedRecords     uint64 // log records served through the feed
}

// Stats returns the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Dir:             s.dir,
		Sync:            s.opts.Sync,
		RetainEpochs:    s.opts.RetainEpochs,
		RecordsAppended: s.appended.Load(),
		Syncs:           s.syncs.Load(),
		RecordsReplayed: s.replayed.Load(),
		Checkpoints:     s.checkpoints.Load(),
		Truncations:     s.truncations.Load(),
		SnapshotEpoch:   s.snapEpoch,
		LastEpoch:       s.lastEpoch,
		TailFloor:       s.tailFloor,
		LogBytes:        s.size,
		FeedRequests:    s.feedRequests.Load(),
		FeedSnapshots:   s.feedSnapshots.Load(),
		FeedRecords:     s.feedRecords.Load(),
	}
}

// Snapshot format: "KRS1" | uint64 LE epoch | uint32 LE crc32 of the epoch
// bytes | a complete KRG1 stream (graph.AppendBinary, self-checking). The
// graph serialization — and its fuzz-hardened reader — is reused wholesale;
// the header only pins which epoch the compacted image corresponds to.

var snapMagic = [4]byte{'K', 'R', 'S', '1'}

const snapHeaderSize = 16

// ErrBadSnapshot reports a corrupt or foreign snapshot file.
var ErrBadSnapshot = errors.New("wal: bad snapshot")

// AppendSnapshot appends the snapshot encoding of g at epoch to buf.
func AppendSnapshot(buf []byte, g *graph.Graph, epoch uint64) []byte {
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, codec.Sum(nil, buf[len(buf)-8:]))
	return graph.AppendBinary(buf, g)
}

// DecodeSnapshot decodes a snapshot image into its graph and epoch.
func DecodeSnapshot(data []byte) (*graph.Graph, uint64, error) {
	if len(data) < snapHeaderSize {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if codec.Sum(nil, data[4:12]) != binary.LittleEndian.Uint32(data[12:16]) {
		return nil, 0, fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	g, err := graph.DecodeBinary(data[snapHeaderSize:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return g, binary.LittleEndian.Uint64(data[4:12]), nil
}

func writeSnapshotFile(path string, g *graph.Graph, epoch uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(AppendSnapshot(nil, g, epoch)); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best-effort: not every platform or filesystem supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // advisory
	d.Close()
}
