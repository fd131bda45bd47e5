package wal

import (
	"encoding/binary"
	"errors"
	"math"

	"kreach/internal/codec"
	"kreach/internal/graph"
)

// On-disk log format (little endian):
//
//	magic "KRW1"
//	records, each:
//	    uint32 payload length | uint32 crc32-IEEE of payload | payload
//	payload:
//	    uvarint epoch |
//	    uvarint nAdd  | nAdd  × (uvarint src, uvarint dst) |
//	    uvarint nRem  | nRem  × (uvarint src, uvarint dst)
//
// The length prefix lets the reader detect a torn tail (a record the
// process died inside of) without scanning for a resync marker, and the
// CRC rejects bit rot and half-flushed sector interleavings. Everything
// after the first invalid byte is dropped: a WAL has no authority to
// reorder history, so a record is durable only if every record before it
// is too.

var logMagic = [4]byte{'K', 'R', 'W', '1'}

// maxVertexID mirrors the int32 vertex ids of the graph package; a
// decoded endpoint beyond it is corruption, not a big graph.
const maxVertexID = math.MaxInt32 - 1

// ErrBadRecord reports a structurally invalid record: a corrupt length
// prefix, CRC mismatch, or payload that does not decode. Readers treat it
// as the end of the valid log prefix.
var ErrBadRecord = errors.New("wal: bad record")

// ErrTornTail reports a record the log ends inside of — the classic
// crash-mid-append shape. Like ErrBadRecord it ends the valid prefix.
var ErrTornTail = errors.New("wal: torn record at log tail")

// ErrBadMagic reports a log file that does not start with the KRW1 magic;
// the store refuses to touch it rather than truncate a foreign file.
var ErrBadMagic = errors.New("wal: bad log magic")

// recordFraming frames KRW1 records with an empty prefix. Its payload cap
// sits far above every real mutation batch (the serving layer caps batches
// long before it), far below what would let a corrupt 4-byte length demand
// gigabytes.
var recordFraming = codec.Framing{Limit: 1 << 26, Bad: ErrBadRecord, Torn: ErrTornTail}

// Record is one durable mutation batch: the epoch reserved for it plus the
// in-range edge operations exactly as the index was asked to apply them.
type Record struct {
	Epoch  uint64
	Add    []graph.Edge
	Remove []graph.Edge
}

// appendRecord appends the framed encoding of rec to buf.
func appendRecord(buf []byte, rec Record) []byte {
	return recordFraming.Append(buf, nil, func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, rec.Epoch)
		buf = appendEdges(buf, rec.Add)
		return appendEdges(buf, rec.Remove)
	})
}

func appendEdges(buf []byte, edges []graph.Edge) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(e.Src))
		buf = binary.AppendUvarint(buf, uint64(e.Dst))
	}
	return buf
}

// decodeRecord decodes one framed record from data. It returns the record
// and the total bytes consumed. A short buffer is ErrTornTail; anything
// structurally wrong is ErrBadRecord.
func decodeRecord(data []byte) (Record, int, error) {
	payload, n, err := recordFraming.Cut(data)
	if err != nil {
		return Record{}, 0, err
	}
	d := codec.NewDecoder(payload, ErrBadRecord)
	rec := Record{Epoch: d.Uvarint()}
	rec.Add = decodeEdges(d)
	rec.Remove = decodeEdges(d)
	if err := d.Done(); err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

func decodeEdges(d *codec.Decoder) []graph.Edge {
	// Each edge consumes at least two payload bytes; a count beyond that is
	// corrupt, checked before the slice is sized.
	edges := make([]graph.Edge, d.Count("edge count", d.Remaining()/2))
	for i := range edges {
		edges[i] = graph.Edge{Src: d.ID(maxVertexID + 1), Dst: d.ID(maxVertexID + 1)}
	}
	return edges
}

// DecodeLog decodes a full log image. It returns every record of the valid
// prefix, the byte length of that prefix (magic included — the offset a
// recovery truncates the file to), and the error that ended the scan: nil
// for a clean end-of-log, ErrTornTail/ErrBadRecord for a tail to truncate,
// ErrBadMagic for a file that is not a KRW1 log at all (zero-length logs
// are valid and empty; a partially written magic is a torn tail of an
// empty log).
func DecodeLog(data []byte) ([]Record, int, error) {
	recs, _, valid, err := decodeLogMarks(data)
	return recs, valid, err
}

// recMark locates one record inside the on-disk log: its epoch plus the
// absolute file offset just past its framing. The store keeps one mark per
// live record so the feed can slice raw record bytes straight out of the
// file and checkpoints can retain an exact epoch window.
type recMark struct {
	epoch uint64
	end   int64
}

// decodeLogMarks is DecodeLog plus a parallel offset index over the valid
// prefix (marks[i].end is where record i's framing ends, magic included).
func decodeLogMarks(data []byte) ([]Record, []recMark, int, error) {
	if len(data) < len(logMagic) {
		if len(data) == 0 {
			return nil, nil, 0, nil
		}
		if string(data) == string(logMagic[:len(data)]) {
			return nil, nil, 0, ErrTornTail
		}
		return nil, nil, 0, ErrBadMagic
	}
	if [4]byte(data[:4]) != logMagic {
		return nil, nil, 0, ErrBadMagic
	}
	var recs []Record
	var marks []recMark
	off := len(logMagic)
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return recs, marks, off, err
		}
		off += n
		recs = append(recs, rec)
		marks = append(marks, recMark{epoch: rec.Epoch, end: int64(off)})
	}
	return recs, marks, off, nil
}

// AppendLog appends the framed encoding of recs — a full log image when
// buf starts empty — to buf. Tests and the golden fixtures use it; the
// store itself encodes record by record as batches arrive.
func AppendLog(buf []byte, recs []Record) []byte {
	buf = append(buf, logMagic[:]...)
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
	}
	return buf
}
