package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"kreach/internal/graph"
	"kreach/internal/testgraph"
)

// Hostile-stream tests: hand-crafted payloads with VALID checksums but
// corrupt fields. Random fuzzing almost never clears the CRC gate, so the
// decoder's size/overflow validation is pinned here deterministically —
// every case must fail with ErrBadIndexFormat, never panic or allocate
// unbounded memory.

// frame wraps a payload in the given magic plus a correct CRC.
func frame(magic string, payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func uv(buf []byte, vs ...uint64) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func zz(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

func TestReadBinaryIndexHostile(t *testing.T) {
	g := testgraph.PaperFigure1() // n = 10
	n := uint64(g.NumVertices())
	cases := map[string][]byte{
		// k = 0 and k = -5 are bounds no writer produces.
		"zero k":     uv(zz(nil, 0), n),
		"negative k": uv(zz(nil, -5), n),
		// coverLen far beyond n: must be rejected before the make().
		"huge cover length": uv(zz(nil, 3), n, 1<<40),
		// Cover delta that would overflow int32 into a negative id.
		"cover delta overflow": uv(zz(nil, 3), n, 2, 0, 1<<33),
		// Duplicate cover vertex (zero delta after the first).
		"duplicate cover vertex": uv(zz(nil, 3), n, 2, 1, 0),
		// Cover vertex beyond n.
		"cover vertex out of range": uv(zz(nil, 3), n, 1, 99),
		// Arc total far beyond what the payload could hold.
		"huge arc count": uv(zz(nil, 3), n, 1, 0, 1<<50),
		// Row degree beyond the declared total.
		"row degree overflow": uv(zz(nil, 3), n, 1, 0, 1, 7),
		// Arc target delta overflowing past coverLen.
		"arc delta overflow": uv(zz(nil, 3), n, 2, 0, 1, 2, 2, 1<<34, 0),
		// Truncated mid-stream (valid CRC over the truncation).
		"truncated": uv(zz(nil, 3), n, 2, 0),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadBinaryIndex(bytes.NewReader(frame("KRI1", payload)), g)
			if err == nil {
				t.Fatal("hostile stream accepted")
			}
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Fatalf("err %v, want ErrBadIndexFormat", err)
			}
		})
	}
}

func TestReadBinaryHKIndexHostile(t *testing.T) {
	g := testgraph.PaperFigure1()
	n := uint64(g.NumVertices())
	cases := map[string][]byte{
		// h so large that 2h+1 weight bits would overflow the packed array.
		"huge h": uv(nil, 1<<40, 1<<41, n),
		// k ≤ 2h (Definition 2 violated), with values that would overflow
		// a naive 2*h check.
		"k below 2h":  uv(nil, 2, 3, n),
		"overfling k": uv(nil, 1<<19, 1<<29, 123),
		// Structural corruption behind valid (h,k).
		"huge cover length":    uv(nil, 1, 3, n, 1<<40),
		"cover delta overflow": uv(nil, 1, 3, n, 2, 0, 1<<33),
		"huge arc count":       uv(nil, 1, 3, n, 1, 0, 1<<50),
		"truncated":            uv(nil, 1, 3, n, 2, 0),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadBinaryHKIndex(bytes.NewReader(frame("KRH1", payload)), g)
			if err == nil {
				t.Fatal("hostile stream accepted")
			}
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Fatalf("err %v, want ErrBadIndexFormat", err)
			}
		})
	}
}

// TestReadBinaryGraphHostile pins the graph reader's size validation.
func TestReadBinaryGraphHostile(t *testing.T) {
	cases := map[string][]byte{
		"huge n":            uv(nil, 1<<40, 0),
		"m beyond payload":  uv(nil, 4, 1<<40),
		"edge out of range": uv(nil, 2, 1, 5, 0),
		"truncated edges":   uv(nil, 4, 3, 0, 1),
		"trailing bytes":    uv(nil, 2, 1, 0, 1, 0, 0, 0),
		// A source past int32 that would wrap onto vertex 1.
		"source past int32": uv(nil, 4, 1, 1<<32+1, 0),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := graph.ReadBinary(bytes.NewReader(frame("KRG1", payload)))
			if !errors.Is(err, graph.ErrBadFormat) {
				t.Fatalf("err %v, want graph.ErrBadFormat", err)
			}
		})
	}
}

// TestReadBinaryIndexRejectsNonCanonical pins, for both index formats,
// streams under a valid CRC that no writer produces: bytes after the
// weight block, a row that repeats an arc (a zero gap after its first
// entry, which the cover list refuses too), and an overlong varint. Each
// is built from a stream that loads, so only the named defect is
// rejected.
func TestReadBinaryIndexRejectsNonCanonical(t *testing.T) {
	g := testgraph.PaperFigure1()
	n := uint64(g.NumVertices())
	// Cover {0,1} with 2 arcs, the rows as raw bytes (one byte per
	// varint: degree, then gaps), then one zero weight word.
	section := func(rows ...byte) []byte {
		out := append(uv(nil, 2, 0, 1, 2), rows...)
		return append(uv(out, 1), make([]byte, 8)...)
	}
	formats := []struct {
		magic string
		head  []byte
		read  func([]byte) error
	}{
		{"KRI1", uv(zz(nil, 3), n), func(b []byte) error {
			_, err := ReadBinaryIndex(bytes.NewReader(b), g)
			return err
		}},
		{"KRH1", uv(nil, 1, 3, n), func(b []byte) error {
			_, err := ReadBinaryHKIndex(bytes.NewReader(b), g)
			return err
		}},
	}
	for _, f := range formats {
		payload := func(rows ...byte) []byte {
			return append(append([]byte(nil), f.head...), section(rows...)...)
		}
		valid := payload(1, 1, 1, 0)
		if err := f.read(frame(f.magic, valid)); err != nil {
			t.Fatalf("%s: base stream rejected: %v", f.magic, err)
		}
		for name, payload := range map[string][]byte{
			"trailing bytes": append(valid, 0, 0, 0),
			"repeated arc":   payload(2, 1, 0, 0),
			"overlong gap":   payload(1, 1, 1, 0x80, 0x00),
		} {
			err := f.read(frame(f.magic, payload))
			if !errors.Is(err, ErrBadIndexFormat) {
				t.Errorf("%s %s: err %v, want ErrBadIndexFormat", f.magic, name, err)
			}
		}
	}
}
