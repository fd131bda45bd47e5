package core

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"

	"kreach/internal/codec"
	"kreach/internal/cover"
	"kreach/internal/graph"
)

// Index serialization. The paper stores the constructed index on disk
// (Section 4.1.3); queries then mmap/load it next to the original graph.
// Layout (little endian), sealed by internal/codec:
//
//	magic "KRI1" | uint32 crc of payload | payload:
//	  zigzag-varint k | cover rows, shared with KRH1:
//	  varint n | varint coverLen | cover vertex ids (varint deltas,
//	  ascending) | varint totalArcs | per cover vertex: varint deg, adj
//	  cover ids (varint deltas, ascending) | packed weight words (varint
//	  count, 8 bytes each; arc p's 2-bit bucket at bit 2(p mod 32) of
//	  word p/32, derived from and ORed back into the index's packed arcs)
//
// The graph itself is serialized separately (graph.WriteBinary); on load
// the caller re-attaches it and the reader validates n.

var indexMagic = [4]byte{'K', 'R', 'I', '1'}

// ErrBadIndexFormat reports a corrupt or foreign index stream.
var ErrBadIndexFormat = errors.New("core: bad index format")

// WriteBinary writes the index (without its graph) to w.
func (ix *Index) WriteBinary(w io.Writer) error {
	_, err := w.Write(codec.AppendSealed(nil, indexMagic, func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(ix.k<<1)^uint64(ix.k>>63)) // zigzag
		return appendCoverRows(buf, ix.coverID, ix.coverSet.List(), ix.outHead, ix.outArc, packBuckets(ix.outArc))
	}))
	return err
}

// weightWords is the length of KRI1's weight block for n arcs.
func weightWords(n int) int { return (n + 31) / 32 }

// packBuckets packs the arcs' buckets into KRI1's weight words.
func packBuckets(arcs []Arc) []uint64 {
	words := make([]uint64, weightWords(len(arcs)))
	for p, a := range arcs {
		words[p/32] |= uint64(a.W()) << (uint(p) % 32 * 2)
	}
	return words
}

// decodeBuckets decodes KRI1's weight block and ORs each arc's bucket into
// arcs, whose buckets are zero. A bucket of 3 is rejected because no
// writer stores one and no case gives it a meaning (Case 1 would accept it
// as an arc), and a set bit past the last arc because packBuckets writes
// none, so the stream would not re-save as read.
func decodeBuckets(d *codec.Decoder, arcs []Arc) error {
	words := make([]uint64, weightWords(len(arcs)))
	if err := decodeWeightWords(d, words); err != nil {
		return err
	}
	for i, word := range words {
		if word&(word>>1)&0x5555555555555555 != 0 { // a lane with both bits set
			return d.Fail("weight bucket 3 in word %d", i)
		}
		chunk := arcs[i*32 : min(i*32+32, len(arcs))]
		if len(chunk) < 32 && word>>(2*len(chunk)) != 0 {
			return d.Fail("weight bits set past the last arc")
		}
		for j := range chunk {
			chunk[j] |= Arc(word >> (2 * j) & 3)
		}
	}
	return nil
}

// ReadBinaryIndex reads an index written by WriteBinary and attaches it to
// g, which must be the graph the index was built from (the vertex count is
// validated, and so is that the cover covers every edge of g; callers are
// responsible for supplying the same graph).
func ReadBinaryIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	payload, err := codec.ReadSealed(r, indexMagic, ErrBadIndexFormat)
	if err != nil {
		return nil, err
	}
	d := codec.NewDecoder(payload, ErrBadIndexFormat)
	k := int(d.Zigzag())
	if k != Unbounded && k < 1 {
		return nil, d.Fail("implausible hop bound %d", k)
	}
	rows, err := decodeCoverRows(d, g.NumVertices())
	if err != nil {
		return nil, err
	}
	if err := decodeBuckets(d, rows.outArc); err != nil {
		return nil, err
	}
	// Queries read every neighbour of a vertex outside the cover as a cover
	// id, so a cover that misses an edge of g would index out of range.
	if !cover.IsVertexCover(g, rows.set) {
		return nil, d.Fail("cover misses an edge of the graph")
	}
	ix := &Index{
		g:        g,
		k:        k,
		gen:      nextGeneration(),
		coverSet: rows.set,
		coverID:  rows.coverID,
		outHead:  rows.outHead,
		outArc:   rows.outArc,
	}
	ix.finalize(runtime.GOMAXPROCS(0))
	return ix, nil
}

// coverRows is the decoded section KRI1 and KRH1 share: the cover, its
// graph-to-cover id map and the CSR rows over cover ids, their arcs' weight
// buckets still zero.
type coverRows struct {
	set     *cover.Set
	coverID []int32
	outHead []int32
	outArc  []Arc
}

// appendCoverRows appends the shared section: n (the length of coverID),
// the cover, the targets of each row's arcs, then the packed weight words.
func appendCoverRows(buf []byte, coverID []int32, list []graph.Vertex, outHead []int32, outArc []Arc, words []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(coverID)))
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	prev := graph.Vertex(0)
	for _, v := range list {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	buf = binary.AppendUvarint(buf, uint64(len(outArc)))
	for u := range list {
		row := outArc[outHead[u]:outHead[u+1]]
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		p := int32(0)
		for _, a := range row {
			buf = binary.AppendUvarint(buf, uint64(a.To()-p))
			p = a.To()
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for _, word := range words {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// decodeCoverRows decodes the shared section up to its weight block for
// the graph of n vertices it must have been built for. The cover and
// every row must be strictly ascending and in range, and the rows must
// hold exactly the declared arc total.
func decodeCoverRows(d *codec.Decoder, n int) (coverRows, error) {
	if err := CheckVertexCount(n); err != nil {
		return coverRows{}, err
	}
	if got := d.Uvarint(); d.Err() == nil && got != uint64(n) {
		return coverRows{}, d.Fail("index built for n=%d, graph has n=%d", got, n)
	}
	coverLen := d.Count("cover length", n)
	if d.Err() != nil {
		return coverRows{}, d.Err()
	}
	list := make([]graph.Vertex, coverLen)
	prev := graph.Vertex(0)
	for i := range list {
		prev = d.NextID(prev, i == 0, n)
		list[i] = prev
	}
	// Every arc consumes at least one payload byte, so the declared arc
	// count is bounded by what is left — checked before allocating.
	total := d.Count("arc count", d.Remaining())
	if d.Err() != nil {
		return coverRows{}, d.Err()
	}
	rows := coverRows{
		set:     cover.NewSet(n, list),
		outHead: make([]int32, coverLen+1),
		outArc:  make([]Arc, total),
	}
	rows.coverID = rows.set.IDs()
	pos := 0
	for u := 0; u < coverLen; u++ {
		rows.outHead[u] = int32(pos)
		deg := d.Count("row degree", total-pos)
		p := int32(0)
		for j := 0; j < deg; j++ {
			p = d.NextID(p, j == 0, coverLen)
			rows.outArc[pos] = MakeArc(p, 0)
			pos++
		}
		if d.Err() != nil {
			return coverRows{}, d.Err()
		}
	}
	rows.outHead[coverLen] = int32(pos)
	if pos != total {
		return coverRows{}, d.Fail("rows hold %d arcs, header declares %d", pos, total)
	}
	return rows, nil
}

// decodeWeightWords decodes the packed weight block, the last field of
// both index formats, into words, which is sized for the decoded arcs.
func decodeWeightWords(d *codec.Decoder, words []uint64) error {
	if c := d.Count("weight words", len(words)); d.Err() == nil && c != len(words) {
		return d.Fail("weight block of %d words, want %d", c, len(words))
	}
	for i := range words {
		words[i] = d.U64()
	}
	return d.Done()
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
