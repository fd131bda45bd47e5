package core

import (
	"encoding/binary"
	"io"

	"kreach/internal/codec"
	"kreach/internal/graph"
)

// (h,k)-reach index serialization, mirroring the plain index format:
//
//	magic "KRH1" | uint32 crc of payload | payload:
//	  varint h | varint k | cover rows (see serial.go, from n on)

var hkMagic = [4]byte{'K', 'R', 'H', '1'}

// WriteBinary writes the (h,k)-reach index (without its graph) to w.
func (ix *HKIndex) WriteBinary(w io.Writer) error {
	arcs := make([]Arc, len(ix.outAdj))
	for p, v := range ix.outAdj {
		arcs[p] = MakeArc(v, 0)
	}
	_, err := w.Write(codec.AppendSealed(nil, hkMagic, func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(ix.h))
		buf = binary.AppendUvarint(buf, uint64(ix.k))
		return appendCoverRows(buf, ix.coverID, ix.coverSet.List(), ix.outHead, arcs, ix.weights.data)
	}))
	return err
}

// ReadBinaryHKIndex reads an index written by HKIndex.WriteBinary and
// attaches it to g, which must be the graph it was built from.
func ReadBinaryHKIndex(r io.Reader, g *graph.Graph) (*HKIndex, error) {
	payload, err := codec.ReadSealed(r, hkMagic, ErrBadIndexFormat)
	if err != nil {
		return nil, err
	}
	d := codec.NewDecoder(payload, ErrBadIndexFormat)
	// Bound h and k before any arithmetic: hostile values would otherwise
	// overflow the k > 2h validation and the 2h+1 weight-width derivation.
	h := d.Count("hop-cover radius", 1<<20)
	k := d.Count("hop bound", 1<<30)
	if d.Err() == nil && (h < 1 || k <= 2*h) {
		return nil, d.Fail("invalid (h,k)=(%d,%d)", h, k)
	}
	rows, err := decodeCoverRows(d, g.NumVertices())
	if err != nil {
		return nil, err
	}
	ix := &HKIndex{
		g:        g,
		h:        h,
		k:        k,
		gen:      nextGeneration(),
		coverSet: rows.set,
		coverID:  rows.coverID,
		outHead:  rows.outHead,
		outAdj:   make([]int32, len(rows.outArc)),
		weights:  newPackedArray(len(rows.outArc), bitsFor(uint(2*h))),
	}
	for p, a := range rows.outArc {
		ix.outAdj[p] = a.To()
	}
	if err := decodeWeightWords(d, ix.weights.data); err != nil {
		return nil, err
	}
	return ix, nil
}
