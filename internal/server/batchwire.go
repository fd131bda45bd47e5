package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"kreach"
)

// The /v1/batch wire codec: a hand-written decoder for the request body and
// an append-style encoder for the reply, so the throughput endpoint spends
// its time in the index, not in reflection.
//
// The decoder is a drop-in replacement for encoding/json, not a dialect of
// its own. DecodeBatchRequest accepts exactly what json.NewDecoder +
// DisallowUnknownFields + Decode into {Graph string; Pairs [][]int; K *int}
// accepts, and yields the same values, with one extra rule: every pair has
// exactly two ids. The matching covers the corners too: keys in any order
// and any letter case (Unicode simple folding), the last duplicate key
// winning, null as "leave unchanged" for scalars and "reset" for slices and
// pointers, integers only (no fractions, exponents or int64 overflow), and
// a null element of a re-decoded slice keeping the value an earlier
// duplicate put there. FuzzBatchRequest holds it to that reference.
//
// The encoder's output is byte-identical to json.NewEncoder(w).Encode of
// BatchReply, HTML escaping and trailing newline included; FuzzBatchReply
// holds it to that.

// BatchRequest is a decoded /v1/batch body. K is nil when the body has no
// (or a null) "k".
type BatchRequest struct {
	Graph string
	Pairs []kreach.Pair
	K     *int

	k int // K points here, so a decode allocates nothing for it
}

// BatchReply is a /v1/batch response, positionally aligned with the
// request's pairs. Results is reachable-or-not for every pair; Verdicts and
// EffectiveK are present only for per-query-k datasets (EffectiveK is 0
// except for yes-within). Epoch is the index generation every answer came
// from: the handler resolves one snapshot per request, so a batch never
// mixes generations. The tags name the wire fields; AppendBatchReply
// writes what encoding/json would.
type BatchReply struct {
	Graph      string   `json:"graph"`
	Epoch      uint64   `json:"epoch"`
	Count      int      `json:"count"`
	Results    []bool   `json:"results"`
	Verdicts   []string `json:"verdicts,omitempty"`
	EffectiveK []int    `json:"effective_k,omitempty"`
}

// wireError reports where and why a body was refused.
type wireError struct {
	off int
	msg string
}

func (e *wireError) Error() string { return fmt.Sprintf("offset %d: %s", e.off, e.msg) }

// wire is a cursor over one JSON document. scratch holds the unquoted form
// of the last string that needed unquoting.
type wire struct {
	b       []byte
	i       int
	scratch []byte
	err     error
}

func (w *wire) fail(format string, args ...any) bool {
	if w.err == nil {
		w.err = &wireError{off: w.i, msg: fmt.Sprintf(format, args...)}
	}
	return false
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (w *wire) peek() byte {
	for w.i < len(w.b) {
		switch c := w.b[w.i]; c {
		case ' ', '\t', '\n', '\r':
			w.i++
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-space byte.
func (w *wire) eat(c byte) bool {
	if w.peek() == c {
		w.i++
		return true
	}
	return false
}

func (w *wire) expect(c byte) bool {
	if w.eat(c) {
		return true
	}
	if w.i >= len(w.b) {
		return w.fail("unexpected end of body, want %q", c)
	}
	return w.fail("unexpected %q, want %q", w.b[w.i], c)
}

// literal consumes lit (true, false or null) at the cursor.
func (w *wire) literal(lit string) bool {
	if !bytes.HasPrefix(w.b[w.i:], []byte(lit)) {
		return w.fail("invalid literal, want %s", lit)
	}
	w.i += len(lit)
	return true
}

// more advances past the separator inside an array or object that close
// ends, reporting whether another element follows.
func (w *wire) more(close byte) bool {
	switch w.peek() {
	case ',':
		w.i++
		return true
	case close:
		w.i++
		return false
	}
	return w.fail("want ',' or %q", close)
}

// digits consumes an optional minus and the integer part of a JSON number
// and returns its magnitude. A fraction or exponent is refused: decoding
// one into an integer field is an error in encoding/json too.
func (w *wire) digits() (neg bool, u uint64, ok bool) {
	b, i := w.b, w.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		w.i = i
		return neg, 0, w.fail("want an integer")
	}
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if u > (math.MaxUint64-d)/10 {
				w.i = i
				return neg, 0, w.fail("integer overflows 64 bits")
			}
			u = u*10 + d
		}
	}
	w.i = i
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return neg, 0, w.fail("want an integer, not a fraction or exponent")
	}
	return neg, u, true
}

// int reads an integer in int64 range.
func (w *wire) int() (int, bool) {
	neg, u, ok := w.digits()
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return int(-int64(u)), true
	case !neg && u <= math.MaxInt64:
		return int(u), true
	}
	return 0, w.fail("integer overflows int64")
}

// str consumes a string and returns its unquoted bytes: a window of the
// input when it needs no unquoting (the common case), else w.scratch. The
// result is valid only until the next call.
func (w *wire) str() ([]byte, bool) {
	if w.peek() != '"' {
		return nil, w.fail("want a string")
	}
	w.i++
	start := w.i
	plain := true
	for w.i < len(w.b) {
		c := w.b[w.i]
		switch {
		case c == '"':
			s := w.b[start:w.i]
			w.i++
			if plain {
				return s, true
			}
			return w.unquote(s), true
		case c == '\\':
			plain = false
			w.i++
			if w.i >= len(w.b) {
				break
			}
			switch w.b[w.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				w.i++
			case 'u':
				if w.i+5 > len(w.b) || getu4(w.b[w.i-1:]) < 0 {
					return nil, w.fail("invalid \\u escape in string")
				}
				w.i += 5
			default:
				return nil, w.fail("invalid escape in string")
			}
		case c < ' ':
			return nil, w.fail("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
			w.i++
		default:
			w.i++
		}
	}
	return nil, w.fail("unterminated string")
}

// unquote decodes a scanned string body into w.scratch the way
// encoding/json does: escapes resolved, surrogate pairs joined, and lone
// surrogates and invalid UTF-8 each replaced by U+FFFD.
func (w *wire) unquote(s []byte) []byte {
	out := w.scratch[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						r += 6
						continue
					}
					rr = utf8.RuneError
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	w.scratch = out
	return out
}

// getu4 decodes \uXXXX at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// null consumes a null if one is next (a malformed literal sets w.err).
func (w *wire) null() bool {
	if w.peek() != 'n' {
		return false
	}
	w.literal("null")
	return true
}

// array decodes a JSON array or null into encoding/json's model of a Go
// slice. s is the backing array: every position this decode has written,
// which encoding/json keeps in the slice's capacity, so re-decoding a
// duplicate key overwrites elements in place and a null element leaves
// the earlier value visible. null and [] drop the backing. elem decodes
// element i (null included) into its slot. It returns the backing and the
// slice length.
func array[T any](w *wire, s []T, elem func(i int, v *T)) ([]T, int) {
	if w.null() {
		return s[:0], 0
	}
	if !w.expect('[') {
		return s, 0
	}
	if w.eat(']') {
		return s[:0], 0
	}
	i := 0
	for ; ; i++ {
		if i == len(s) {
			var zero T
			s = append(s, zero)
		}
		elem(i, &s[i])
		if w.err != nil || !w.more(']') {
			break
		}
	}
	return s, i + 1
}

// pair decodes one [s, t] element into p and returns its length; any
// length but 2 is the caller's to refuse. A null or [] pair is a nil
// []int to encoding/json: both ids read back as 0. A null id leaves the
// slot's earlier value, as array does.
func (w *wire) pair(p *kreach.Pair) int {
	if w.null() {
		*p = kreach.Pair{}
		return 0
	}
	if !w.expect('[') {
		return 0
	}
	if w.eat(']') {
		*p = kreach.Pair{}
		return 0
	}
	for m := 1; ; m++ {
		if !w.null() {
			if v, ok := w.int(); ok && m == 1 {
				p.S = v
			} else if ok && m == 2 {
				p.T = v
			}
		}
		if w.err != nil || !w.more(']') {
			return m
		}
	}
}

// DecodeBatchRequest decodes a /v1/batch body into req, reusing req's
// memory. Bytes after the top-level value are ignored, as json.Decoder
// ignores them. req.K points into req itself.
func DecodeBatchRequest(data []byte, req *BatchRequest) error {
	backing, prevGraph := req.Pairs[:0], req.Graph
	*req = BatchRequest{}
	w := wire{b: data}
	n, bad, badLen := 0, -1, 0
	switch w.peek() {
	case 'n':
		if w.literal("null") {
			return nil
		}
		return w.err
	case '{':
		w.i++
	default:
		w.fail("want a JSON object")
		return w.err
	}
	for open := !w.eat('}'); open; open = w.more('}') {
		key, ok := w.str()
		if !ok || !w.expect(':') {
			return w.err
		}
		switch {
		case bytes.EqualFold(key, []byte("graph")):
			if w.null() {
				break
			}
			if s, ok := w.str(); ok {
				if req.Graph = prevGraph; string(s) != prevGraph {
					req.Graph = string(s)
				}
			}
		case bytes.EqualFold(key, []byte("pairs")):
			bad = -1
			backing, n = array(&w, backing, func(i int, p *kreach.Pair) {
				if m := w.pair(p); m != 2 && bad < 0 {
					bad, badLen = i, m
				}
			})
		case bytes.EqualFold(key, []byte("k")):
			if w.null() {
				req.K = nil
			} else if v, ok := w.int(); ok {
				req.k, req.K = v, &req.k
			}
		default:
			w.fail("unknown field %q", key)
		}
		if w.err != nil {
			return w.err
		}
	}
	if w.err != nil {
		return w.err
	}
	req.Pairs = backing[:n]
	if bad >= 0 {
		return fmt.Errorf("pair %d: want exactly two vertex ids, got %d", bad, badLen)
	}
	return nil
}

// AppendBatchReply appends kreachd's /v1/batch response for r.
func AppendBatchReply(dst []byte, r *BatchReply) []byte {
	dst = append(dst, `{"graph":`...)
	dst = appendString(dst, r.Graph)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	dst = append(dst, `,"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for _, ok := range r.Results {
			if ok {
				dst = append(dst, "true,"...)
			} else {
				dst = append(dst, "false,"...)
			}
		}
		dst = closeList(dst, len(r.Results))
	}
	if len(r.Verdicts) > 0 {
		dst = append(dst, `,"verdicts":[`...)
		for _, v := range r.Verdicts {
			dst = append(appendString(dst, v), ',')
		}
		dst = closeList(dst, len(r.Verdicts))
	}
	if len(r.EffectiveK) > 0 {
		dst = append(dst, `,"effective_k":[`...)
		for _, k := range r.EffectiveK {
			dst = append(strconv.AppendInt(dst, int64(k), 10), ',')
		}
		dst = closeList(dst, len(r.EffectiveK))
	}
	return append(dst, "}\n"...)
}

// closeList ends a list whose n elements were each written with a trailing
// comma: the last comma becomes the closing bracket.
func closeList(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, ']')
	}
	dst[len(dst)-1] = ']'
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json's
// HTML-escaping encoder does: <, > and & as \u escapes, U+2028 and U+2029
// escaped, invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
