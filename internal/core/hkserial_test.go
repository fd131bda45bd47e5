package core_test

import (
	"bytes"
	"testing"

	"kreach/internal/core"
	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

func TestHKBinaryRoundTrip(t *testing.T) {
	for _, hk := range []core.HKOptions{{H: 1, K: 3}, {H: 2, K: 6}, {H: 3, K: 9}} {
		g := testgraph.Random(70, 250, 55)
		ix, err := core.BuildHK(g, hk)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := core.ReadBinaryHKIndex(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		if back.H() != ix.H() || back.K() != ix.K() ||
			back.NumIndexEdges() != ix.NumIndexEdges() {
			t.Fatalf("(%d,%d): round trip changed shape", hk.H, hk.K)
		}
		s1 := core.NewHKQueryScratch()
		s2 := core.NewHKQueryScratch()
		for s := 0; s < 70; s++ {
			for tt := 0; tt < 70; tt += 3 {
				a := ix.Reach(graph.Vertex(s), graph.Vertex(tt), s1)
				b := back.Reach(graph.Vertex(s), graph.Vertex(tt), s2)
				if a != b {
					t.Fatalf("(%d,%d): loaded index disagrees on (%d,%d)", hk.H, hk.K, s, tt)
				}
			}
		}
	}
}

func TestHKBinaryRejectsCorruptionAndMismatch(t *testing.T) {
	g := testgraph.PaperFigure1()
	ix, err := core.BuildHK(g, core.HKOptions{H: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip every byte position in turn: either the CRC or a structural
	// validation must reject each corruption (no panics, no silent accept
	// of a changed payload).
	for i := 8; i < len(data); i++ {
		flip := append([]byte(nil), data...)
		flip[i] ^= 0xA5
		if _, err := core.ReadBinaryHKIndex(bytes.NewReader(flip), g); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	// Wrong magic and wrong graph.
	if _, err := core.ReadBinaryHKIndex(bytes.NewReader([]byte("XXXX00000000")), g); err == nil {
		t.Error("foreign magic accepted")
	}
	other := testgraph.Random(11, 20, 3)
	if _, err := core.ReadBinaryHKIndex(bytes.NewReader(data), other); err == nil {
		t.Error("wrong graph accepted")
	}
	// Plain-index stream must not load as an HK index and vice versa.
	plain, err := core.Build(g, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := plain.WriteBinary(&pbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadBinaryHKIndex(&pbuf, g); err == nil {
		t.Error("plain index stream accepted as HK index")
	}
}
