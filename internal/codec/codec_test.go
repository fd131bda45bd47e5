package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

var (
	errBad  = errors.New("bad")
	errTorn = errors.New("torn")
)

func appendBytes(p []byte) func([]byte) []byte {
	return func(buf []byte) []byte { return append(buf, p...) }
}

// TestFrameSumMatchesPlainCRC pins why KRW1 can share the frame with KRF1
// and keep its bytes: with an empty prefix the frame CRC is the payload's.
func TestFrameSumMatchesPlainCRC(t *testing.T) {
	payload := []byte("kreach record payload")
	if Sum(nil, payload) != crc32.ChecksumIEEE(payload) {
		t.Fatal("empty-prefix Sum differs from crc32.ChecksumIEEE")
	}
	if Sum([]byte{2}, payload) != crc32.ChecksumIEEE(append([]byte{2}, payload...)) {
		t.Fatal("Sum is not the CRC of prefix ∥ payload")
	}
	f := Framing{Limit: 64, Bad: errBad, Torn: errTorn}
	frame := f.Append([]byte("head"), nil, appendBytes(payload))[4:]
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
	if !bytes.Equal(frame, append(want, payload...)) {
		t.Fatalf("frame %x, want len | crc | payload", frame)
	}
}

func TestFramingCutAndRead(t *testing.T) {
	f := Framing{Prefix: 1, Limit: 8, Bad: errBad, Torn: errTorn}
	wire := f.Append(nil, []byte{7}, appendBytes([]byte("abc")))
	wire = f.Append(wire, []byte{9}, appendBytes(nil))
	payload, n, err := f.Cut(wire)
	if err != nil || string(payload) != "abc" || n != 12 {
		t.Fatalf("Cut: %q %d %v", payload, n, err)
	}
	r := bytes.NewReader(wire)
	for _, want := range []string{"\x07abc", "\x09"} {
		if prefix, payload, err := f.Read(r); err != nil || string(prefix)+string(payload) != want {
			t.Fatalf("Read: %q %q %v, want %q", prefix, payload, err, want)
		}
	}
	if _, _, err := f.Read(r); err != io.EOF {
		t.Fatalf("Read at a frame boundary: %v, want io.EOF", err)
	}
	for cut := 1; cut < 12; cut++ {
		if _, _, err := f.Cut(wire[:cut]); !errors.Is(err, errTorn) {
			t.Errorf("Cut of %d bytes: %v, want torn", cut, err)
		}
		if _, _, err := f.Read(bytes.NewReader(wire[:cut])); !errors.Is(err, errTorn) {
			t.Errorf("Read of %d bytes: %v, want torn", cut, err)
		}
	}
	flipped := append([]byte(nil), wire...)
	flipped[0] ^= 1 // the prefix is under the CRC
	if _, _, err := f.Cut(flipped); !errors.Is(err, errBad) {
		t.Errorf("flipped prefix: %v, want bad", err)
	}
	big := f.Append(nil, []byte{1}, appendBytes(make([]byte, 9)))
	if _, _, err := f.Cut(big); !errors.Is(err, errBad) {
		t.Errorf("payload over the limit: %v, want bad", err)
	}
}

func TestSealed(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	data := AppendSealed(nil, magic, appendBytes([]byte{1, 2, 3}))
	for name, read := range map[string]func([]byte) ([]byte, error){
		"Unseal":     func(b []byte) ([]byte, error) { return Unseal(b, magic, errBad) },
		"ReadSealed": func(b []byte) ([]byte, error) { return ReadSealed(bytes.NewReader(b), magic, errBad) },
	} {
		if payload, err := read(data); err != nil || !bytes.Equal(payload, []byte{1, 2, 3}) {
			t.Errorf("%s: %v %v", name, payload, err)
		}
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			if _, err := read(bad); !errors.Is(err, errBad) {
				t.Errorf("%s: flip at %d: %v, want bad", name, i, err)
			}
		}
	}
}

func TestDecoder(t *testing.T) {
	type step func(d *Decoder)
	uvarint := func(want uint64) step {
		return func(d *Decoder) {
			if got := d.Uvarint(); d.Err() == nil && got != want {
				t.Errorf("Uvarint %d, want %d", got, want)
			}
		}
	}
	id := func(limit int) step { return func(d *Decoder) { d.ID(limit) } }
	next := func(prev int32, first bool, limit int) step {
		return func(d *Decoder) { d.NextID(prev, first, limit) }
	}
	count := func(limit int) step { return func(d *Decoder) { d.Count("n", limit) } }
	u64 := func(d *Decoder) { d.U64() }
	for _, c := range []struct {
		name  string
		in    []byte
		steps []step
		ok    bool
	}{
		{"canonical", []byte{0, 0x80, 0x01}, []step{uvarint(0), uvarint(128)}, true},
		{"overlong zero", []byte{0x80, 0x00}, []step{uvarint(0)}, false},
		{"overlong 1", []byte{0x81, 0x80, 0x00}, []step{uvarint(1)}, false},
		{"truncated", []byte{0x80}, []step{uvarint(0)}, false},
		{"overflow", bytes.Repeat([]byte{0xff}, 11), []step{uvarint(0)}, false},
		{"trailing", []byte{1, 2}, []step{uvarint(1)}, false},
		{"count at limit", []byte{4}, []step{count(4)}, true},
		{"count over limit", []byte{5}, []step{count(4)}, false},
		{"id in range", []byte{9}, []step{id(10)}, true},
		{"id at limit", []byte{10}, []step{id(10)}, false},
		{"id 2^32+1", binary.AppendUvarint(nil, 1<<32+1), []step{id(10)}, false},
		{"first may repeat", []byte{0}, []step{next(3, true, 10)}, true},
		{"later may not", []byte{0}, []step{next(3, false, 10)}, false},
		{"gap past limit", []byte{7}, []step{next(3, false, 10)}, false},
		{"gap past int32", binary.AppendUvarint(nil, 1<<33), []step{next(3, false, 10)}, false},
		{"word", make([]byte, 8), []step{u64}, true},
		{"short word", make([]byte, 7), []step{u64}, false},
	} {
		d := NewDecoder(c.in, errBad)
		for _, s := range c.steps {
			s(d)
		}
		if err := d.Done(); (err == nil) != c.ok || err != nil && !errors.Is(err, errBad) {
			t.Errorf("%s: Done() = %v, want ok=%v wrapping the sentinel", c.name, err, c.ok)
		}
	}
}
