// Uncompressed bit kernels beside the WAH vectors of wah.go, which serve
// the PWAH baseline. The k-reach index uses only the single-bit helpers:
// Case 4 of Algorithm 2 stages t's in-neighbor cover ids as a bitmap over
// cover ids and tests each arc against it.
//
// WeightRow is a 2-bit weight row over lanes stored as two bitplanes, the
// paper's Section 4.3 weight alphabet {≤k-2, k-1, k} plus a fourth code
// (3) for "no arc". No index layout stores one; the benchmark's
// bitvec.row_scan_words_per_s rung times CountLEMasked over rows as wide
// as a workload's cover.

package bitvec

import "math/bits"

// LaneAbsent is the reserved 2-bit code for "no arc" in a WeightRow.
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
