package core

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"

	"kreach/internal/bitvec"
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
//	  count, 8 bytes each)
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
		return appendCoverRows(buf, ix.coverID, ix.coverSet.List(), ix.outHead, ix.outAdj, ix.weights.Words())
	}))
	return err
}

// ReadBinaryIndex reads an index written by WriteBinary and attaches it to
// g, which must be the graph the index was built from (vertex count is
// validated; callers are responsible for supplying the same graph).
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
	ix := &Index{
		g:        g,
		k:        k,
		gen:      nextGeneration(),
		coverSet: rows.set,
		coverID:  rows.coverID,
		outHead:  rows.outHead,
		outAdj:   rows.outAdj,
		weights:  bitvec.NewPacked2(len(rows.outAdj)),
	}
	if err := decodeWeightWords(d, ix.weights.Words()); err != nil {
		return nil, err
	}
	ix.finalize(runtime.GOMAXPROCS(0))
	return ix, nil
}

// coverRows is the decoded section KRI1 and KRH1 share: the cover, its
// graph-to-cover id map and the CSR rows over cover ids.
type coverRows struct {
	set     *cover.Set
	coverID []int32
	outHead []int32
	outAdj  []int32
}

// appendCoverRows appends the shared section: n (the length of coverID),
// the cover, each row, then the packed weight words.
func appendCoverRows(buf []byte, coverID []int32, list []graph.Vertex, outHead, outAdj []int32, words []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(coverID)))
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	prev := graph.Vertex(0)
	for _, v := range list {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	buf = binary.AppendUvarint(buf, uint64(len(outAdj)))
	for u := range list {
		adj := outAdj[outHead[u]:outHead[u+1]]
		buf = binary.AppendUvarint(buf, uint64(len(adj)))
		p := int32(0)
		for _, v := range adj {
			buf = binary.AppendUvarint(buf, uint64(v-p))
			p = v
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
		coverID: make([]int32, n),
		outHead: make([]int32, coverLen+1),
		outAdj:  make([]int32, total),
	}
	for i := range rows.coverID {
		rows.coverID[i] = -1
	}
	for i, v := range list {
		rows.coverID[v] = int32(i)
	}
	pos := 0
	for u := 0; u < coverLen; u++ {
		rows.outHead[u] = int32(pos)
		deg := d.Count("row degree", total-pos)
		p := int32(0)
		for j := 0; j < deg; j++ {
			p = d.NextID(p, j == 0, coverLen)
			rows.outAdj[pos] = p
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
