package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"kreach/internal/codec"
)

// edgeSet flattens a graph's edges for comparison.
func edgeSet(g *Graph) map[[2]Vertex]bool {
	set := make(map[[2]Vertex]bool)
	g.ForEachEdge(func(u, v Vertex) { set[[2]Vertex{u, v}] = true })
	return set
}

func TestReadEdgeListWithHeader(t *testing.T) {
	in := "# kreach edge list\n5 3\n0 1\n1 2\n2 4\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d, want n=5 m=3", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 4) {
		t.Error("header file lost edges")
	}
}

// Regression: header-less lists must keep their first line as an edge
// instead of swallowing it as an "n m" header.
func TestReadEdgeListHeaderless(t *testing.T) {
	in := "0 1\n1 2\n2 4\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("n = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3 (first edge swallowed as header?)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) {
		t.Error("first edge (0,1) lost")
	}
}

// Regression: a header-less list whose first edge has the largest source id
// used to fail with "vertex out of declared range".
func TestReadEdgeListHeaderlessLargeFirstSource(t *testing.T) {
	in := "7 0\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d, want n=8 m=3", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(7, 0) {
		t.Error("first edge (7,0) lost")
	}
}

func TestReadEdgeListSingleEdge(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	// "3 1" with nothing after it cannot be a header of a 1-edge graph, so
	// it is the edge (3,1).
	if g.NumVertices() != 4 || g.NumEdges() != 1 || !g.HasEdge(3, 1) {
		t.Fatalf("got n=%d m=%d, want the single edge (3,1)", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# only comments\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d, want empty graph", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListEmptyWithHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("4 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("got n=%d m=%d, want n=4 m=0", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListRejectsMalformed(t *testing.T) {
	for _, in := range []string{"0 1 2\n", "a b\n", "0 -1\n0 1\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// Round-trips through WriteEdgeList must stay exact for graphs whose edge
// lists would be ambiguous without the header.
func TestEdgeListRoundTripWithIsolatedTail(t *testing.T) {
	b := NewBuilder(10) // vertices 6..9 isolated
	b.AddEdge(0, 1)
	b.AddEdge(1, 5)
	g := b.Build()
	var buf strings.Builder
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 10 || got.NumEdges() != 2 {
		t.Fatalf("round trip gave n=%d m=%d, want n=10 m=2", got.NumVertices(), got.NumEdges())
	}
	want := edgeSet(g)
	for e := range edgeSet(got) {
		if !want[e] {
			t.Errorf("round trip invented edge %v", e)
		}
	}
}

// binaryPayload encodes a KRG1 payload as AppendBinary does — source, then
// the target's gap from the previous target of the same source — but in
// the order given, sorted or not.
func binaryPayload(n int, edges [][2]Vertex) []byte {
	buf := binary.AppendUvarint(nil, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	prevSrc, prevDst := Vertex(-1), Vertex(0)
	for _, e := range edges {
		if e[0] != prevSrc {
			prevSrc, prevDst = e[0], 0
		}
		buf = binary.AppendUvarint(buf, uint64(e[0]))
		buf = binary.AppendUvarint(buf, uint64(e[1]-prevDst))
		prevDst = e[1]
	}
	return buf
}

// sealed wraps a payload in the KRG1 magic and a correct CRC, so the
// decoder's structural checks, not the checksum, must reject it.
func sealed(payload []byte) []byte {
	return codec.AppendSealed(nil, binaryMagic, func(buf []byte) []byte { return append(buf, payload...) })
}

// TestDecodeBinaryRejectsUnsortedEdges pins the KRG1 order check: the CSR
// build behind DecodeBinary assumes (src,dst) strictly ascending, and a
// stream that breaks it once loaded in(0) = [3 1], out(1) = [0 2 4 4] and
// HasEdge(1,0) false.
func TestDecodeBinaryRejectsUnsortedEdges(t *testing.T) {
	for name, edges := range map[string][][2]Vertex{
		"out of order and duplicate": {{3, 0}, {1, 0}, {1, 2}, {1, 4}, {1, 4}},
		"source descends":            {{3, 0}, {1, 0}},
		"duplicate":                  {{1, 2}, {1, 4}, {1, 4}},
	} {
		if g, err := DecodeBinary(sealed(binaryPayload(5, edges))); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got graph %v, error %v; want ErrBadFormat", name, g, err)
		}
	}
	sorted := [][2]Vertex{{1, 0}, {1, 2}, {1, 4}, {3, 0}}
	g, err := DecodeBinary(sealed(binaryPayload(5, sorted)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sorted {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("sorted stream lost edge %v", e)
		}
	}
	if g.NumEdges() != len(sorted) {
		t.Errorf("sorted stream has %d edges, want %d", g.NumEdges(), len(sorted))
	}
}

// TestDecodeBinaryRejectsNonCanonicalStreams pins what no writer produces
// and the decoder must therefore refuse, even under a valid CRC: bytes
// after the last edge, a source id past int32 that would wrap onto a
// valid vertex if it were converted before the range check, and an
// overlong varint that would decode to the same value as its canonical
// form. Accepting any of them would let a loaded stream re-save to
// different bytes.
func TestDecodeBinaryRejectsNonCanonicalStreams(t *testing.T) {
	valid := binaryPayload(5, [][2]Vertex{{1, 0}, {1, 2}, {3, 4}})
	if _, err := DecodeBinary(sealed(valid)); err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"trailing bytes":      append(append([]byte(nil), valid...), 0, 0, 0),
		"source 2^32+1":       append(binary.AppendUvarint([]byte{5, 1}, 1<<32+1), 0),
		"overlong edge count": {5, 0x80, 0x00},
		"overlong target gap": {5, 1, 1, 0x82, 0x00},
	} {
		stream := sealed(payload)
		if g, err := DecodeBinary(stream); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got graph %v, error %v; want ErrBadFormat", name, g, err)
		}
		if g, err := ReadBinary(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: ReadBinary got graph %v, error %v; want ErrBadFormat", name, g, err)
		}
	}
}
