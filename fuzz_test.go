package kreach_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"kreach"
	"kreach/internal/graph"
)

// Fuzzing the on-disk attack surface: kreachd and the kreach CLI load
// index and graph files straight off disk, so corrupt KRI1/KRH1/KRG1
// bytes must produce errors — never panics, runaway allocations, or an
// "index" that later crashes queries. The targets accept any input that
// parses cleanly but then exercise it (full pairwise queries, ball
// enumerations, save round-trips), so a stream that decodes into an
// internally inconsistent structure still gets caught.
//
// Seed corpora live under testdata/fuzz/<FuzzName>/ (valid streams with
// surgically corrupted magics, sizes, deltas and truncations); the
// in-code f.Add seeds below regenerate valid streams from the live
// writers so the corpus never goes stale as formats evolve. CI runs each
// target for 30s on every push (see .github/workflows/ci.yml).

// fuzzGraph is the fixture the fuzzed indexes attach to: loaders validate
// the stream's vertex count against it.
func fuzzGraph() *kreach.Graph {
	b := kreach.NewBuilder(12)
	for i := 0; i < 11; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(3, 0)
	b.AddEdge(7, 2)
	b.AddEdge(0, 9)
	return b.Build()
}

// exerciseReacher runs every pairwise query and a few enumerations: a
// loaded-but-inconsistent index must fail here, not in production.
func exerciseReacher(t *testing.T, r kreach.Reacher) {
	ctx := t.Context()
	for s := 0; s < 12; s++ {
		for d := 0; d < 12; d++ {
			if _, _, err := r.ReachK(ctx, s, d, kreach.UseIndexK); err != nil {
				t.Fatalf("ReachK(%d,%d): %v", s, d, err)
			}
		}
	}
	if enum, ok := r.(kreach.NeighborEnumerator); ok {
		for s := 0; s < 12; s += 3 {
			if _, err := enum.ReachFrom(ctx, s, kreach.UseIndexK, kreach.EnumOptions{}); err != nil {
				t.Fatalf("ReachFrom(%d): %v", s, err)
			}
			if _, err := enum.ReachInto(ctx, s, kreach.UseIndexK, kreach.EnumOptions{}); err != nil {
				t.Fatalf("ReachInto(%d): %v", s, err)
			}
		}
	}
}

func FuzzLoadAutoIndex(f *testing.F) {
	g := fuzzGraph()
	// Valid streams from the live writers, so the corpus tracks the format.
	plain, err := kreach.BuildIndex(g, kreach.IndexOptions{K: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plain.Save(&buf); err != nil {
		f.Fatal(err)
	}
	validPlain := append([]byte(nil), buf.Bytes()...)
	f.Add(validPlain)

	hk, err := kreach.BuildHKIndex(g, kreach.HKOptions{H: 1, K: 3})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := hk.Save(&buf); err != nil {
		f.Fatal(err)
	}
	validHK := append([]byte(nil), buf.Bytes()...)
	f.Add(validHK)

	buf.Reset()
	if err := g.SaveBinary(&buf); err != nil {
		f.Fatal(err)
	}
	validGraph := append([]byte(nil), buf.Bytes()...)
	f.Add(validGraph)

	// Classic corruption shapes alongside the testdata corpus.
	f.Add(validPlain[:4])
	f.Add(validPlain[:len(validPlain)/2])
	f.Add([]byte{})
	f.Add([]byte("KRI1"))
	f.Add([]byte("not an index at all"))

	// A well-framed KRG1 stream whose edges (3,0),(1,0),(1,2),(1,4),(1,4)
	// are out of order and duplicated: each byte is one uvarint, n, m,
	// then per edge its source and its target's gap from the previous
	// target of that source.
	unsorted := []byte{5, 5, 3, 0, 1, 0, 1, 2, 1, 2, 1, 0}
	f.Add(append(binary.LittleEndian.AppendUint32([]byte("KRG1"), crc32.ChecksumIEEE(unsorted)), unsorted...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		ix, hk, err := kreach.LoadAutoIndex(bytes.NewReader(data), g)
		if err == nil {
			switch {
			case ix != nil:
				exerciseReacher(t, ix)
				var out bytes.Buffer
				if err := ix.Save(&out); err != nil {
					t.Fatalf("re-save of accepted plain index: %v", err)
				}
			case hk != nil:
				exerciseReacher(t, hk)
				var out bytes.Buffer
				if err := hk.Save(&out); err != nil {
					t.Fatalf("re-save of accepted (h,k) index: %v", err)
				}
			default:
				t.Fatal("LoadAutoIndex returned neither index nor error")
			}
		}
		// The same bytes through the graph loader: corrupt KRG1 streams
		// must error, and accepted ones must be well-formed CSR graphs and
		// safely usable.
		if g2, err := kreach.LoadBinary(bytes.NewReader(data)); err == nil {
			checkCSR(t, g2.Internal())
			var out bytes.Buffer
			if err := g2.SaveBinary(&out); err != nil {
				t.Fatalf("re-save of accepted graph: %v", err)
			}
		}
	})
}

// checkCSR asserts the invariants every consumer of a loaded graph relies
// on: each out- and in-list is strictly ascending, every out-edge (u,v)
// has u in v's in-list, and both sides hold NumEdges entries, so the in-
// lists are exactly the out-lists mirrored.
func checkCSR(t *testing.T, g *graph.Graph) {
	t.Helper()
	outs, ins := 0, 0
	for u := range graph.Vertex(g.NumVertices()) {
		out, in := g.OutNeighbors(u), g.InNeighbors(u)
		for _, list := range [][]graph.Vertex{out, in} {
			for i := 1; i < len(list); i++ {
				if list[i-1] >= list[i] {
					t.Fatalf("vertex %d: adjacency %v not strictly ascending", u, list)
				}
			}
		}
		for _, v := range out {
			if _, ok := slices.BinarySearch(g.InNeighbors(v), u); !ok {
				t.Fatalf("edge (%d,%d) missing from the in-list of %d", u, v, v)
			}
		}
		outs += len(out)
		ins += len(in)
	}
	if outs != g.NumEdges() || ins != g.NumEdges() {
		t.Fatalf("%d out- and %d in-entries for %d edges", outs, ins, g.NumEdges())
	}
}
