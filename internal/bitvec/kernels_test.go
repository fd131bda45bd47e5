package bitvec

import (
	"math/rand/v2"
	"testing"
)

// The kernel tests are differential: every word-parallel operation is
// checked against a naive per-element reference on randomized inputs, so a
// SWAR formula cannot drift from the semantics it compresses.

func TestBitOps(t *testing.T) {
	w := make([]uint64, 3)
	for _, i := range []int{0, 1, 63, 64, 127, 128, 191} {
		if TestBit(w, i) {
			t.Fatalf("bit %d set in zero bitset", i)
		}
		SetBit(w, i)
		if !TestBit(w, i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
		ClearBit(w, i)
		if TestBit(w, i) {
			t.Fatalf("bit %d still set after ClearBit", i)
		}
	}
}

// randRow fills a WeightRow of n lanes, biasing some lanes to LaneAbsent,
// and returns the per-lane reference values.
func randRow(rng *rand.Rand, n int) (WeightRow, []uint8) {
	r := NewWeightRow(n)
	ref := make([]uint8, n)
	for i := range ref {
		v := uint8(rng.IntN(6)) // 4,5 → absent: bias toward sparse rows
		if v > 3 {
			v = LaneAbsent
		}
		r.Set(i, v)
		ref[i] = v
	}
	return r, ref
}

// lane decodes lane i of r from its two planes, independently of Set.
func lane(r WeightRow, i int) uint8 {
	word, bit := i>>6, uint(i)&63
	return uint8(r.B0[word]>>bit&1) | uint8(r.B1[word]>>bit&1)<<1
}

func TestWeightRowGetSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{1, 63, 64, 65, 200} {
		r, ref := randRow(rng, n)
		for i, want := range ref {
			if got := lane(r, i); got != want {
				t.Fatalf("n=%d lane %d: got %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestWeightRowNewAllAbsent(t *testing.T) {
	r := NewWeightRow(130)
	for i := 0; i < 130; i++ {
		if lane(r, i) != LaneAbsent {
			t.Fatalf("lane %d of fresh row = %d, want LaneAbsent", i, lane(r, i))
		}
	}
}

func TestWeightRowMaskedKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(300)
		r, ref := randRow(rng, n)
		mask := make([]uint64, RowWords(n))
		for i := 0; i < n; i++ {
			if rng.IntN(3) == 0 {
				SetBit(mask, i)
			}
		}
		for max := uint8(0); max <= 2; max++ {
			want := 0
			for i, v := range ref {
				if TestBit(mask, i) && v <= max {
					want++
				}
			}
			if got := r.CountLEMasked(mask, max); got != want {
				t.Fatalf("n=%d max=%d: CountLEMasked = %d, want %d", n, max, got, want)
			}
		}
	}
}
