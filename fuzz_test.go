package kreach_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
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
	f.Add(seal("KRG1", unsorted))
	// Well-framed streams that no writer produces: bytes after the last
	// field of each format, a KRG1 source id of 2^32+1 (vertex 1 once
	// truncated to int32), an overlong varint (0x80 0x00 is 0), and a KRI1
	// row that repeats an arc.
	for _, valid := range [][]byte{validPlain, validHK, validGraph} {
		payload := append(append([]byte(nil), valid[8:]...), 0, 0, 0)
		f.Add(seal(string(valid[:4]), payload))
	}
	f.Add(seal("KRG1", append(binary.AppendUvarint([]byte{5, 1}, 1<<32+1), 0)))
	f.Add(seal("KRG1", []byte{5, 0x80, 0x00}))
	// k=3, n=12, cover {0,1}, 2 arcs, row 0 = {1,1}, row 1 empty, 1 word.
	repeated := []byte{6, 12, 2, 0, 1, 2, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	f.Add(seal("KRI1", repeated))
	// An empty cover, which covers no edge of the graph.
	f.Add(seal("KRI1", []byte{6, 12, 0, 0, 0}))
	// The cover {0,1} with arcs 0→1 and 1→0, whose weight word holds bucket
	// 3 in the first lane, then a bit in the third lane, past the last arc.
	for _, word := range []byte{3, 1 << 4} {
		f.Add(seal("KRI1", []byte{6, 12, 2, 0, 1, 2, 1, 1, 1, 0, 1, word, 0, 0, 0, 0, 0, 0, 0}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		loadStream(t, g, data)
		// A mutant almost never fixes its CRC, so the decoders behind it
		// see little of what the fuzzer varies. Each input is therefore
		// loaded again resealed — its first 4 bytes as the magic, then a
		// CRC recomputed over the bytes after the first 8 — so that a
		// mutated payload reaches them.
		if len(data) >= 8 {
			if resealed := seal(string(data[:4]), data[8:]); !bytes.Equal(resealed, data) {
				loadStream(t, g, resealed)
			}
		}
	})
}

// loadStream loads data as an index attached to g and as a graph. A load
// may fail; one that succeeds must answer every query and save back to
// data.
func loadStream(t *testing.T, g *kreach.Graph, data []byte) {
	t.Helper()
	ix, hk, err := kreach.LoadAutoIndex(bytes.NewReader(data), g)
	if err == nil {
		switch {
		case ix != nil:
			exerciseReacher(t, ix)
			requireResave(t, "plain index", data, ix.Save)
		case hk != nil:
			exerciseReacher(t, hk)
			requireResave(t, "(h,k) index", data, hk.Save)
		default:
			t.Fatal("LoadAutoIndex returned neither index nor error")
		}
	}
	// The same bytes through the graph loader: corrupt KRG1 streams must
	// error, and accepted ones must be well-formed CSR graphs and safely
	// usable. A few bytes may declare millions of isolated vertices, whose
	// load costs a gigabyte, so a stream declaring more than
	// maxFuzzVertices is left out (TestReadBinaryGraphHostile pins the
	// loader's own bound).
	if len(data) >= 8 {
		if n, size := binary.Uvarint(data[8:]); size > 0 && n > maxFuzzVertices {
			return
		}
	}
	if g2, err := kreach.LoadBinary(bytes.NewReader(data)); err == nil {
		checkCSR(t, g2.Internal())
		requireResave(t, "graph", data, g2.SaveBinary)
	}
}

// maxFuzzVertices bounds the vertex count of a graph the fuzzer loads.
const maxFuzzVertices = 1 << 16

// seal frames payload as a KRG1/KRI1/KRH1 stream: magic, then a CRC that
// matches, so only the decoder's structural checks stand in the way.
func seal(magic string, payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32([]byte(magic), crc32.ChecksumIEEE(payload)), payload...)
}

// requireResave asserts that an accepted stream saves back to exactly the
// bytes it was loaded from: the decoders accept only what the writers
// produce, so anything a load tolerates but a save normalizes is a gap.
func requireResave(t *testing.T, what string, data []byte, save func(io.Writer) error) {
	t.Helper()
	var out bytes.Buffer
	if err := save(&out); err != nil {
		t.Fatalf("re-save of accepted %s: %v", what, err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("accepted %s re-saves to different bytes:\n in %x\nout %x", what, data, out.Bytes())
	}
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
