// Word-parallel kernels shared by the query hot paths. The WAH vectors in
// wah.go serve the PWAH baseline; this file is the kernel home for the
// k-reach index itself: single-bit helpers over uncompressed bitsets and a
// bitplane view of dense 2-bit weight rows (WeightRow) whose lane
// predicates evaluate 64 cover vertices per instruction instead of one per
// probe.
//
// The 2-bit weight alphabet is the paper's Section 4.3 observation that
// k-reach edge weights take only the three values {≤k-2, k-1, k}; the
// fourth code point (3) is reserved here to mean "no arc", which is what
// lets a dense row answer membership and weight in the same load.

package bitvec

import "math/bits"

// LaneAbsent is the reserved 2-bit code for "no arc" in dense weight rows.
const LaneAbsent = 3

// SetBit sets bit i of the uncompressed bitset.
func SetBit(words []uint64, i int) { words[i>>6] |= 1 << (uint(i) & 63) }

// ClearBit clears bit i of the uncompressed bitset.
func ClearBit(words []uint64, i int) { words[i>>6] &^= 1 << (uint(i) & 63) }

// TestBit reports whether bit i of the uncompressed bitset is set.
func TestBit(words []uint64, i int) bool { return words[i>>6]>>(uint(i)&63)&1 == 1 }

// WeightRow is a dense row of 2-bit weights over lanes [0, n), stored as
// two bitplanes: B0 holds bit 0 of every lane, B1 bit 1. Lane value
// LaneAbsent (3) means "no arc". The bitplane split is what makes the lane
// predicates word-parallel: "value ≤ 1" is one NOT, "value == 0" one NOR,
// and intersecting with a vertex bitmask is a plain AND — no 2-bit lane
// expansion ever happens.
type WeightRow struct {
	B0, B1 []uint64
}

// RowWords returns the words-per-plane needed for n lanes.
func RowWords(n int) int { return (n + 63) / 64 }

// NewWeightRow returns a row of n lanes, all LaneAbsent.
func NewWeightRow(n int) WeightRow {
	w := RowWords(n)
	r := WeightRow{B0: make([]uint64, w), B1: make([]uint64, w)}
	for i := range r.B0 {
		r.B0[i] = ^uint64(0)
		r.B1[i] = ^uint64(0)
	}
	return r
}

// Get returns the 2-bit value of lane i.
func (r WeightRow) Get(i int) uint8 {
	word, bit := i>>6, uint(i)&63
	return uint8(r.B0[word]>>bit&1) | uint8(r.B1[word]>>bit&1)<<1
}

// Set stores v (0..3) at lane i.
func (r WeightRow) Set(i int, v uint8) {
	word, bit := i>>6, uint(i)&63
	mask := uint64(1) << bit
	r.B0[word] = r.B0[word]&^mask | uint64(v&1)<<bit
	r.B1[word] = r.B1[word]&^mask | uint64(v>>1&1)<<bit
}

// leWord returns, for one word position, the bitmask of lanes whose value
// is ≤ max (max in 0..2; LaneAbsent never qualifies).
func leWord(b0, b1 uint64, max uint8) uint64 {
	switch max {
	case 0:
		return ^(b0 | b1) // value 00
	case 1:
		return ^b1 // values 00, 01
	default:
		return ^(b0 & b1) // any present lane
	}
}

// AnyLEMasked reports whether some lane i with mask bit i set has value
// ≤ max. It is the Case-4 kernel: mask is the in-neighbor cover bitmap,
// the row is one hub's weight row, and one call replaces up to 64 probes.
func (r WeightRow) AnyLEMasked(mask []uint64, max uint8) bool {
	n := len(r.B0)
	if len(mask) < n {
		n = len(mask)
	}
	for i := 0; i < n; i++ {
		if m := mask[i]; m != 0 && leWord(r.B0[i], r.B1[i], max)&m != 0 {
			return true
		}
	}
	return false
}

// CountLEMasked counts lanes with mask bit set and value ≤ max.
func (r WeightRow) CountLEMasked(mask []uint64, max uint8) int {
	n := len(r.B0)
	if len(mask) < n {
		n = len(mask)
	}
	total := 0
	for i := 0; i < n; i++ {
		if m := mask[i]; m != 0 {
			total += bits.OnesCount64(leWord(r.B0[i], r.B1[i], max) & m)
		}
	}
	return total
}

// IterateEQ calls yield(i) for every lane i whose value equals v (v in
// 0..2), ascending — the bulk row→bucket expansion kernel: enumeration
// walks the =v lanes of a row word-parallel instead of decoding each
// entry.
func (r WeightRow) IterateEQ(v uint8, yield func(i int)) {
	for wi := range r.B0 {
		b0, b1 := r.B0[wi], r.B1[wi]
		var w uint64
		switch v {
		case 0:
			w = ^(b0 | b1)
		case 1:
			w = b0 &^ b1
		default:
			w = b1 &^ b0
		}
		base := wi << 6
		for w != 0 {
			yield(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
