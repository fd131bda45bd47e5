package codec

import (
	"encoding/binary"
	"fmt"
)

// Decoder reads one payload field by field. Its error is sticky: after the
// first failure every read returns zero and Err, Fail and Done keep
// reporting that first failure, so a decoder can read a run of fields and
// check once. Every error wraps the sentinel the Decoder was made with.
type Decoder struct {
	buf []byte
	off int
	err error
	bad error
}

// NewDecoder returns a Decoder over payload whose errors wrap bad.
func NewDecoder(payload []byte, bad error) *Decoder {
	return &Decoder{buf: payload, bad: bad}
}

// Err reports the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records a format-specific failure (unless an earlier one stands)
// and returns the decoder's error. A failed decoder has nothing left to
// read.
func (d *Decoder) Fail(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.bad, fmt.Sprintf(format, args...))
		d.off = len(d.buf)
	}
	return d.err
}

// Done reports the first failure, or a failure if any payload bytes are
// left unread: a field appended after the last one is corruption.
func (d *Decoder) Done() error {
	if d.off != len(d.buf) {
		d.Fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Remaining is the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads one canonical unsigned varint. A truncated, overflowing
// or overlong one — a multi-byte encoding whose last byte is zero, which
// no writer produces — fails. Every varint field of every format is read
// here.
func (d *Decoder) Uvarint() uint64 {
	buf := d.buf[d.off:]
	if v, n := binary.Uvarint(buf); canonical(buf, n) {
		d.off += n
		return v
	}
	d.Fail("truncated, overflowing or overlong varint")
	return 0
}

// canonical reports whether binary.Uvarint read a well-formed, minimal
// varint of n bytes from the start of buf.
func canonical(buf []byte, n int) bool { return n == 1 || n > 1 && buf[n-1] != 0 }

// Zigzag reads one zigzag-encoded signed varint.
func (d *Decoder) Zigzag() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// U64 reads one fixed 8-byte word.
func (d *Decoder) U64() uint64 {
	if len(d.buf)-d.off < 8 {
		d.Fail("truncated word block")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Count reads a size field and fails if it exceeds limit, before any
// caller allocation can happen: a corrupt stream can never provoke a huge
// or negative make().
func (d *Decoder) Count(what string, limit int) int {
	if v := d.Uvarint(); v <= uint64(limit) {
		return int(v)
	}
	return d.fail(what, limit)
}

// ID reads an absolute id and fails unless it is below limit; the check
// runs on the 64-bit value, before the int32 conversion could wrap it.
func (d *Decoder) ID(limit int) int32 {
	if v := d.Uvarint(); v < uint64(limit) {
		return int32(v)
	}
	return int32(d.fail("id", limit))
}

// NextID reads the gap from prev (at most limit) to the next id of an
// ascending list and returns that id. The first entry of a list (first
// set, prev usually 0) may repeat prev; every later one must exceed it.
// The id must be below limit, checked before the int32 addition.
func (d *Decoder) NextID(prev int32, first bool, limit int) int32 {
	if gap := d.Uvarint(); (gap != 0 || first) && gap < uint64(limit)-uint64(prev) {
		return prev + int32(gap)
	}
	return int32(d.fail("ascending list entry", limit))
}

// fail fails the decoder for a field that breaks its list's order or
// exceeds its limit (unless an earlier failure stands), and returns 0.
func (d *Decoder) fail(what string, limit int) int {
	d.Fail("bad %s (limit %d)", what, limit)
	return 0
}
