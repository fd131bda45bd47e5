// Package codec frames, checksums and decodes the module's six binary
// formats: a sealed stream, magic | u32 crc32(payload) | payload, for the
// files written whole (KRG1, KRI1, KRH1); a frame, prefix | u32 len | u32
// crc32(prefix ∥ payload) | payload, for records appended one by one
// (KRW1 with an empty prefix, KRF1 with its kind byte; KRS1 wraps a KRG1
// stream); and a sticky-error Decoder that accepts only what the writers
// produce, so a stream that decodes re-encodes byte for byte. Every error
// wraps the sentinel of the format at hand. Integers are little endian.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Sum is the checksum every format uses: CRC-32 (IEEE) over prefix ∥ payload.
func Sum(prefix, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(prefix), crc32.IEEETable, payload)
}

// AppendSealed appends magic | crc32(payload) | payload to buf, where
// payload is whatever appendPayload appends; the payload is built in place.
func AppendSealed(buf []byte, magic [4]byte, appendPayload func([]byte) []byte) []byte {
	start := len(buf)
	buf = append(buf, magic[:]...)
	buf = append(buf, 0, 0, 0, 0)
	buf = appendPayload(buf)
	binary.LittleEndian.PutUint32(buf[start+4:], Sum(nil, buf[start+8:]))
	return buf
}

// Unseal checks a whole sealed stream's magic and CRC and returns its
// payload.
func Unseal(data []byte, magic [4]byte, bad error) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated header", bad)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", bad)
	}
	return checkSealed(data[4:8], data[8:], bad)
}

// ReadSealed reads a sealed stream to the end of r and returns its payload.
// A stream too short for the header reports io.EOF or io.ErrUnexpectedEOF.
func ReadSealed(r io.Reader, magic [4]byte, bad error) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", bad)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return checkSealed(hdr[4:], payload, bad)
}

func checkSealed(sum, payload []byte, bad error) ([]byte, error) {
	if Sum(nil, payload) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", bad)
	}
	return payload, nil
}

// Framing describes one framed format: the fixed prefix length, the cap
// on the payload length a header may declare (checked before anything is
// allocated or read), and the sentinels that wrap structural failures
// (Bad) and input ending inside a frame (Torn). With an empty prefix the
// frame CRC is that of the payload alone.
type Framing struct {
	Prefix    int
	Limit     uint32
	Bad, Torn error
}

// Append appends one frame to buf: prefix (which must be f.Prefix bytes),
// then the payload appendPayload appends, built in place.
func (f Framing) Append(buf, prefix []byte, appendPayload func([]byte) []byte) []byte {
	buf = append(buf, prefix...)
	hdr := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = appendPayload(buf)
	payload := buf[hdr+8:]
	binary.LittleEndian.PutUint32(buf[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[hdr+4:], Sum(prefix, payload))
	return buf
}

// Cut decodes the frame at the start of data and returns its payload,
// aliasing data, and the frame's total length.
func (f Framing) Cut(data []byte) (payload []byte, n int, err error) {
	h := f.Prefix + 8
	if len(data) < h {
		return nil, 0, fmt.Errorf("%w: truncated frame header", f.Torn)
	}
	size, err := f.size(data[:h])
	if err != nil {
		return nil, 0, err
	}
	if len(data)-h < size {
		return nil, 0, fmt.Errorf("%w: truncated frame payload", f.Torn)
	}
	payload = data[h : h+size]
	return payload, h + size, f.check(data[:h], payload)
}

// Read reads the next frame from r. It returns io.EOF when r ends exactly
// at a frame boundary. The payload buffer grows as bytes arrive, from a
// first step of payloadStep, instead of trusting the header up front, so
// a stream that claims a large frame and then ends costs what it carried.
func (f Framing) Read(r io.Reader) (prefix, payload []byte, err error) {
	hdr := make([]byte, f.Prefix+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, nil, fmt.Errorf("%w: truncated frame header", f.Torn)
		}
		return nil, nil, err
	}
	size, err := f.size(hdr)
	if err != nil {
		return nil, nil, err
	}
	payload = make([]byte, 0, min(size, payloadStep))
	for len(payload) < size {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(size-len(payload), cap(payload)))
		}
		n, err := io.ReadFull(r, payload[len(payload):min(size, cap(payload))])
		payload = payload[:len(payload)+n]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, fmt.Errorf("%w: truncated frame payload", f.Torn)
		} else if err != nil {
			return nil, nil, err
		}
	}
	return hdr[:f.Prefix], payload, f.check(hdr, payload)
}

const payloadStep = 64 << 10

func (f Framing) size(hdr []byte) (int, error) {
	size := binary.LittleEndian.Uint32(hdr[f.Prefix:])
	if size > f.Limit {
		return 0, fmt.Errorf("%w: implausible payload length %d", f.Bad, size)
	}
	return int(size), nil
}

func (f Framing) check(hdr, payload []byte) error {
	if Sum(hdr[:f.Prefix], payload) != binary.LittleEndian.Uint32(hdr[f.Prefix+4:]) {
		return fmt.Errorf("%w: checksum mismatch", f.Bad)
	}
	return nil
}
