package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"

	"kreach/internal/bitvec"
	"kreach/internal/cover"
	"kreach/internal/graph"
)

// Index serialization. The paper stores the constructed index on disk
// (Section 4.1.3); queries then mmap/load it next to the original graph.
// Layout (little endian):
//
//	magic "KRI1" | uint32 crc of payload | payload:
//	  zigzag-varint k | varint n | varint coverLen |
//	  cover vertex ids (varint deltas, ascending) |
//	  varint totalArcs | per cover vertex: varint deg, adj cover ids
//	  (varint deltas) | packed weight words (varint count, 8 bytes each)
//
// The graph itself is serialized separately (graph.WriteBinary); on load
// the caller re-attaches it and AttachGraph validates n.

var indexMagic = [4]byte{'K', 'R', 'I', '1'}

// ErrBadIndexFormat reports a corrupt or foreign index stream.
var ErrBadIndexFormat = errors.New("core: bad index format")

// WriteBinary writes the index (without its graph) to w.
func (ix *Index) WriteBinary(w io.Writer) error {
	var buf []byte
	buf = appendZigzag(buf, int64(ix.k))
	buf = binary.AppendUvarint(buf, uint64(len(ix.coverID)))
	list := ix.coverSet.List()
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	prev := graph.Vertex(0)
	for _, v := range list {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	buf = binary.AppendUvarint(buf, uint64(len(ix.outAdj)))
	for u := 0; u < len(list); u++ {
		adj := ix.outAdj[ix.outHead[u]:ix.outHead[u+1]]
		buf = binary.AppendUvarint(buf, uint64(len(adj)))
		p := int32(0)
		for _, v := range adj {
			buf = binary.AppendUvarint(buf, uint64(v-p))
			p = v
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ix.weights.Words())))
	for _, word := range ix.weights.Words() {
		var wbuf [8]byte
		binary.LittleEndian.PutUint64(wbuf[:], word)
		buf = append(buf, wbuf[:]...)
	}

	var hdr [8]byte
	copy(hdr[:4], indexMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(buf))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinaryIndex reads an index written by WriteBinary and attaches it to
// g, which must be the graph the index was built from (vertex count is
// validated; callers are responsible for supplying the same graph).
func ReadBinaryIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadIndexFormat)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadIndexFormat)
	}
	d := decoder{buf: payload}
	k := int(d.zigzag())
	if k != Unbounded && k < 1 {
		return nil, fmt.Errorf("%w: implausible hop bound %d", ErrBadIndexFormat, k)
	}
	n := int(d.uvarint())
	if n != g.NumVertices() {
		return nil, fmt.Errorf("%w: index built for n=%d, graph has n=%d",
			ErrBadIndexFormat, n, g.NumVertices())
	}
	coverLen, err := d.count("cover length", n)
	if err != nil {
		return nil, err
	}
	list, err := d.coverList(coverLen, n)
	if err != nil {
		return nil, err
	}
	// Every arc consumes at least one payload byte, so the declared arc
	// count is bounded by the payload size — checked before allocating.
	total, err := d.count("arc count", len(payload))
	if err != nil {
		return nil, err
	}
	ix := &Index{
		g:        g,
		k:        k,
		gen:      nextGeneration(),
		coverSet: cover.NewSet(n, list),
		coverID:  make([]int32, n),
		outHead:  make([]int32, coverLen+1),
		outAdj:   make([]int32, total),
	}
	for i := range ix.coverID {
		ix.coverID[i] = -1
	}
	for i, v := range list {
		ix.coverID[v] = int32(i)
	}
	ix.weights = bitvec.NewPacked2(total)
	if err := d.arcRows(coverLen, total, ix.outHead, ix.outAdj, ix.weights.Words()); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	ix.finalize(runtime.GOMAXPROCS(0))
	return ix, nil
}

// count reads a non-negative size field and rejects values beyond limit
// before any caller allocation can happen, so a corrupt stream can never
// provoke a huge or negative make().
func (d *decoder) count(label string, limit int) (int, error) {
	v := d.uvarint()
	if d.err != nil {
		return 0, d.err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("%w: %s %d exceeds limit %d", ErrBadIndexFormat, label, v, limit)
	}
	return int(v), nil
}

// coverList decodes the delta-encoded, strictly ascending cover vertex
// list, validating every entry against n. Deltas are checked before the
// int32 accumulation, so hostile values cannot overflow into negative ids.
func (d *decoder) coverList(coverLen, n int) ([]graph.Vertex, error) {
	list := make([]graph.Vertex, coverLen)
	prev := graph.Vertex(0)
	for i := range list {
		dv := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if dv > uint64(n) || (i > 0 && dv == 0) {
			return nil, fmt.Errorf("%w: cover vertex out of range", ErrBadIndexFormat)
		}
		prev += graph.Vertex(dv)
		if int(prev) >= n {
			return nil, fmt.Errorf("%w: cover vertex out of range", ErrBadIndexFormat)
		}
		list[i] = prev
	}
	return list, nil
}

// arcRows decodes the per-cover-vertex CSR rows (delta-encoded ascending
// ids) and the packed weight words shared by the plain and (h,k) formats.
// outHead/outAdj must be pre-sized to coverLen+1/total; weightWords is the
// pre-sized backing word slice of the packed weight array.
func (d *decoder) arcRows(coverLen, total int, outHead, outAdj []int32, weightWords []uint64) error {
	pos := 0
	for u := 0; u < coverLen; u++ {
		outHead[u] = int32(pos)
		deg, err := d.count("row degree", total-pos)
		if err != nil {
			return fmt.Errorf("%w: arc overflow", ErrBadIndexFormat)
		}
		p := int32(0)
		for j := 0; j < deg; j++ {
			dv := d.uvarint()
			if d.err != nil {
				return d.err
			}
			if dv > uint64(coverLen) {
				return fmt.Errorf("%w: arc target out of range", ErrBadIndexFormat)
			}
			p += int32(dv)
			if int(p) >= coverLen {
				return fmt.Errorf("%w: arc target out of range", ErrBadIndexFormat)
			}
			outAdj[pos] = p
			pos++
		}
	}
	outHead[coverLen] = int32(pos)
	if pos != total {
		return fmt.Errorf("%w: arc count mismatch", ErrBadIndexFormat)
	}
	words := int(d.uvarint())
	if d.err != nil {
		return d.err
	}
	if words != len(weightWords) {
		return fmt.Errorf("%w: weight block size mismatch", ErrBadIndexFormat)
	}
	for i := 0; i < words; i++ {
		weightWords[i] = d.u64()
	}
	return d.err
}

func appendZigzag(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated varint", ErrBadIndexFormat)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) zigzag() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated word block", ErrBadIndexFormat)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// SniffIndexMagic classifies a serialized index stream by its leading
// 4 bytes: "kreach" for a plain Index, "hkreach" for an HKIndex, "" for
// neither. Used by auto-detecting loaders to dispatch without parsing.
func SniffIndexMagic(magic [4]byte) string {
	switch magic {
	case indexMagic:
		return "kreach"
	case hkMagic:
		return "hkreach"
	}
	return ""
}
