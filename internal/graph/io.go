package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kreach/internal/codec"
)

// Text edge-list format: one "src dst" pair per line, '#'-prefixed comment
// lines ignored, vertex ids in [0, n). The first non-comment line may be a
// header "n m" if writeHeader was used; ReadEdgeList auto-detects it by edge
// count.
//
// Binary format (little endian):
//
//	magic "KRG1" | uint32 crc of payload | varint n | varint m |
//	m edges as varint(src) varint(dstDelta)  (delta within runs of equal src)
//
// The binary form exists because the paper stores indexes and graphs on disk
// (Section 4.1.3) and the experiment harness round-trips datasets.

// WriteEdgeList writes g in text form with a "n m" header line.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# kreach edge list\n%d %d\n", g.NumVertices(), g.NumEdges())
	var err error
	g.ForEachEdge(func(u, v Vertex) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses the text form produced by WriteEdgeList. It also
// accepts header-less lists, in which case n is one more than the largest
// vertex id seen.
//
// Header detection is deferred until the whole stream is read: the first
// non-comment pair (a, b) is a header only if every subsequent id fits in
// [0, a) and b equals the number of remaining lines — exactly what
// WriteEdgeList emits. Otherwise the first pair is an edge like any other,
// so header-less lists keep their first edge. The formats are inherently
// ambiguous at the margin, and ties break toward the header so that
// WriteEdgeList round-trips are always exact: a header-less list whose
// first edge both dominates every other id and has dst equal to the
// remaining line count (e.g. "2 1\n0 1\n") is read as a headered graph,
// and a corrupt header that fails the test (say a truncated file whose
// declared m exceeds the surviving lines) is kept as an edge rather than
// diagnosed.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var (
		edges     []Edge
		first     Edge
		sawFirst  bool
		maxVertex = Vertex(-1)
		bytesRead int
	)
	for sc.Scan() {
		bytesRead += len(sc.Bytes()) + 1
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: malformed line %q", line)
		}
		a, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad vertex %q: %w", fields[0], err)
		}
		b, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad vertex %q: %w", fields[1], err)
		}
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("graph: negative vertex in line %q", line)
		}
		if !sawFirst {
			first, sawFirst = Edge{Src: Vertex(a), Dst: Vertex(b)}, true
			continue
		}
		u, v := Vertex(a), Vertex(b)
		edges = append(edges, Edge{u, v})
		if u > maxVertex {
			maxVertex = u
		}
		if v > maxVertex {
			maxVertex = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawFirst {
		return FromEdges(0, nil), nil
	}
	// Sanity cap, mirroring the binary format's: a header (or stray id)
	// declaring hundreds of millions of vertices would demand a
	// multi-gigabyte CSR from a handful of bytes.
	checkN := func(n int) error {
		if n > maxBinaryVertices {
			return fmt.Errorf("graph: implausible vertex count %d in a %d-byte edge list", n, bytesRead)
		}
		return nil
	}
	if int(maxVertex) < int(first.Src) && int(first.Dst) == len(edges) {
		// The first pair is an "n m" header.
		if err := checkN(int(first.Src)); err != nil {
			return nil, err
		}
		return FromEdges(int(first.Src), edges), nil
	}
	// Header-less list: the first pair is an edge.
	if first.Src > maxVertex {
		maxVertex = first.Src
	}
	if first.Dst > maxVertex {
		maxVertex = first.Dst
	}
	edges = append(edges, first)
	if err := checkN(int(maxVertex) + 1); err != nil {
		return nil, err
	}
	return FromEdges(int(maxVertex)+1, edges), nil
}

var binaryMagic = [4]byte{'K', 'R', 'G', '1'}

// maxBinaryVertices caps the vertex count a binary graph stream may
// declare: far above every dataset this module targets, far below what
// would let a corrupt 10-byte header demand a multi-gigabyte CSR.
const maxBinaryVertices = 1 << 27

// ErrBadFormat reports a corrupt or foreign binary graph stream.
var ErrBadFormat = errors.New("graph: bad binary format")

// WriteBinary writes g in the compact binary form with a CRC32 integrity
// check over the payload.
func WriteBinary(w io.Writer, g *Graph) error {
	_, err := w.Write(AppendBinary(nil, g))
	return err
}

// AppendBinary appends the whole binary form of g (magic, CRC, payload)
// to buf and returns the extended buffer.
func AppendBinary(buf []byte, g *Graph) []byte {
	return codec.AppendSealed(buf, binaryMagic, func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, uint64(g.NumVertices()))
		buf = binary.AppendUvarint(buf, uint64(g.NumEdges()))
		prevSrc := Vertex(-1)
		prevDst := Vertex(0)
		g.ForEachEdge(func(u, v Vertex) {
			buf = binary.AppendUvarint(buf, uint64(u))
			if u != prevSrc {
				prevSrc, prevDst = u, 0
			}
			buf = binary.AppendUvarint(buf, uint64(v-prevDst))
			prevDst = v
		})
		return buf
	})
}

// ReadBinary reads a graph written by WriteBinary, verifying the checksum.
func ReadBinary(r io.Reader) (*Graph, error) {
	payload, err := codec.ReadSealed(r, binaryMagic, ErrBadFormat)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload)
}

// DecodeBinary decodes a graph from its whole binary form, as AppendBinary
// writes it.
func DecodeBinary(data []byte) (*Graph, error) {
	payload, err := codec.Unseal(data, binaryMagic, ErrBadFormat)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload)
}

func decodePayload(payload []byte) (*Graph, error) {
	d := codec.NewDecoder(payload, ErrBadFormat)
	// The vertex cap bounds the CSR allocation a tiny hostile header could
	// otherwise provoke (int32 vertex ids would admit allocations in the
	// tens of gigabytes). Each edge consumes at least two payload bytes, so
	// a declared m beyond half the payload is corrupt — checked before the
	// edge slice is sized.
	n := d.Count("vertex count", maxBinaryVertices)
	m := d.Count("edge count", len(payload)/2)
	if d.Err() != nil {
		return nil, d.Err()
	}
	edges := make([]Edge, m)
	// FromSortedEdges, the overlay merge and every CSR consumer rely on
	// (src,dst) strictly ascending, so an edge that is not strictly after
	// its predecessor is rejected, not sorted: a source may not descend,
	// and a target may not descend or repeat within its source's run.
	prev := Edge{Src: -1}
	for i := range edges {
		src := d.ID(n)
		if src < prev.Src {
			return nil, d.Fail("edge source %d after %d", src, prev.Src)
		}
		if src != prev.Src {
			prev.Dst = 0
		}
		edges[i] = Edge{Src: src, Dst: d.NextID(prev.Dst, src != prev.Src, n)}
		if d.Err() != nil {
			return nil, d.Err()
		}
		prev = edges[i]
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return FromSortedEdges(n, edges), nil
}
